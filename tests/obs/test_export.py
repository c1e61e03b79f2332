"""Unit tests for the snapshot exporters (JSON, Prometheus, text)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.export import (
    bundle,
    histogram_percentile,
    load_snapshot,
    render_prometheus,
    render_text,
    render_traces,
    save_snapshot,
)
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests_total", "Requests seen",
                     server="srv1").inc(42)
    registry.gauge("queue_depth", "Live depth").set(7)
    hist = registry.histogram("stage_seconds", "Stage latency")
    for value in (0.001, 0.004, 0.02, 0.3):
        hist.observe(value)
    return registry


def _sample_traces() -> list[dict]:
    tracer = Tracer()
    trace_id = tracer.start("verdict/drv-0")
    tracer.record(trace_id, "queue", 0.0, 0.002)
    tracer.record(trace_id, "forward", 0.002, 0.010)
    tracer.finish(trace_id)
    return tracer.snapshot()


class TestBundleRoundtrip:
    def test_bundle_carries_metrics_and_traces(self):
        document = bundle(_sample_registry().snapshot(), _sample_traces())
        assert document["version"] == 1
        assert len(document["metrics"]) == 3
        assert len(document["traces"]) == 1

    def test_bundle_without_traces_omits_key(self):
        document = bundle(_sample_registry().snapshot())
        assert "traces" not in document

    def test_save_load_roundtrip(self, tmp_path):
        document = bundle(_sample_registry().snapshot(), _sample_traces())
        path = str(tmp_path / "snap.json")
        save_snapshot(document, path)
        loaded = load_snapshot(path)
        assert loaded == json.loads(json.dumps(document))

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError):
            load_snapshot(str(path))

    def test_save_maps_non_finite_to_null(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("h_seconds")  # empty: min/max are +/-inf -> None
        path = str(tmp_path / "snap.json")
        save_snapshot(bundle(registry.snapshot()), path)
        (entry,) = load_snapshot(path)["metrics"]
        assert entry["min"] is None
        assert entry["max"] is None


class TestHistogramPercentileOnSnapshots:
    def test_matches_live_instrument(self, rng):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=LATENCY_BUCKETS)
        for value in rng.uniform(0.0005, 2.0, size=800):
            hist.observe(float(value))
        (entry,) = registry.snapshot()["metrics"]
        for q in (50.0, 95.0, 99.0):
            assert histogram_percentile(entry, q) == pytest.approx(
                hist.percentile(q))

    def test_survives_json_roundtrip(self, rng, tmp_path):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds")
        for value in rng.exponential(0.05, size=300):
            hist.observe(float(value))
        path = str(tmp_path / "snap.json")
        save_snapshot(bundle(registry.snapshot()), path)
        (entry,) = load_snapshot(path)["metrics"]
        assert histogram_percentile(entry, 95.0) == pytest.approx(
            hist.percentile(95.0))

    def test_empty_histogram_is_zero(self):
        entry = MetricsRegistry().histogram("h")._state() | {
            "name": "h", "kind": "histogram", "labels": {}}
        assert histogram_percentile(entry, 50.0) == 0.0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        text = render_prometheus(bundle(_sample_registry().snapshot()))
        assert '# TYPE requests_total counter' in text
        assert '# HELP requests_total Requests seen' in text
        assert 'requests_total{server="srv1"} 42' in text
        assert '# TYPE queue_depth gauge' in text
        assert 'queue_depth 7' in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.01, 0.1))
        for value in (0.005, 0.05, 5.0):
            hist.observe(value)
        text = render_prometheus(bundle(registry.snapshot()))
        assert 'h_seconds_bucket{le="0.01"} 1' in text
        assert 'h_seconds_bucket{le="0.1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert 'h_seconds_count 3' in text
        assert 'h_seconds_sum 5.055' in text

    def test_type_line_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("x_total", link="a").inc()
        registry.counter("x_total", link="b").inc()
        text = render_prometheus(bundle(registry.snapshot()))
        assert text.count("# TYPE x_total counter") == 1


class TestTextRendering:
    def test_histogram_row_has_quantiles(self):
        text = render_text(bundle(_sample_registry().snapshot()))
        assert "stage_seconds" in text
        assert "p50=" in text and "p95=" in text and "p99=" in text
        assert "ms" in text

    def test_unitless_histograms_are_not_scaled_to_ms(self):
        registry = MetricsRegistry()
        registry.histogram("batch_size", buckets=(1.0, 8.0)).observe(4)
        text = render_text(bundle(registry.snapshot()))
        assert "ms" not in text
        assert "p50=4.000" in text

    def test_zero_instruments_hidden_unless_requested(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total")
        document = bundle(registry.snapshot())
        assert render_text(document) == "(no metrics recorded)"
        assert "quiet_total" in render_text(document, zeros=True)


class TestTraceRendering:
    def test_renders_last_completed_trace(self):
        document = bundle(_sample_registry().snapshot(), _sample_traces())
        text = render_traces(document)
        assert "verdict/drv-0" in text
        assert "queue" in text
        assert "forward" in text

    def test_no_traces_message(self):
        assert render_traces(bundle(_sample_registry().snapshot())) == \
            "(no completed traces)"

    def test_limit_selects_most_recent(self):
        tracer = Tracer()
        for name in ("first", "second", "third"):
            tracer.finish(tracer.start(name))
        document = bundle(_sample_registry().snapshot(), tracer.snapshot())
        text = render_traces(document, limit=2)
        assert "first" not in text
        assert "second" in text and "third" in text
