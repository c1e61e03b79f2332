"""Unit tests for the metrics primitives: instruments, registry, merge."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)

    def test_merge_adds(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(7)
        a._merge(b._state())
        assert a.value == 10.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(4.0)
        assert gauge.value == 3.0

    def test_set_max_ratchets_upward_only(self):
        gauge = Gauge("g")
        gauge.set_max(4.0)
        gauge.set_max(2.0)
        assert gauge.value == 4.0

    def test_merge_takes_max(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(3.0)
        b.set(9.0)
        a._merge(b._state())
        assert a.value == 9.0


class TestHistogramBuckets:
    def test_buckets_must_be_sorted_and_unique(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_upper_bounds_are_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)   # lands in the <=1.0 bucket, not <=2.0
        state = hist._state()
        assert state["counts"] == [1, 0, 0]

    def test_overflow_lands_in_implicit_inf_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        state = hist._state()
        assert state["counts"] == [0, 0, 1]

    def test_boundary_placement_across_all_edges(self):
        bounds = (0.5, 1.0, 5.0)
        hist = Histogram("h", buckets=bounds)
        for bound in bounds:
            hist.observe(bound)          # inclusive: lands at its bound
            hist.observe(bound + 1e-9)   # exclusive: lands one bucket up
        assert hist._state()["counts"] == [1, 2, 2, 1]

    def test_streaming_aggregates(self):
        hist = Histogram("h", buckets=COUNT_BUCKETS)
        for value in (1, 2, 3, 10):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 16.0
        assert hist.mean == 4.0
        assert hist.min == 1.0
        assert hist.max == 10.0

    def test_empty_histogram_is_all_zero(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.percentile(50) == 0.0


class TestHistogramQuantiles:
    def test_single_sample_reports_itself(self):
        hist = Histogram("h")
        hist.observe(0.0123)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == pytest.approx(0.0123, rel=1e-9)

    def test_out_of_range_percentile_rejected(self):
        hist = Histogram("h")
        with pytest.raises(ConfigurationError):
            hist.percentile(101)
        with pytest.raises(ConfigurationError):
            hist.percentile(-1)

    @pytest.mark.parametrize("q", [10.0, 50.0, 90.0, 95.0, 99.0])
    def test_estimates_track_numpy_on_uniform_samples(self, q, rng):
        samples = rng.uniform(0.0005, 1.0, size=5000)
        hist = Histogram("h", buckets=LATENCY_BUCKETS)
        for value in samples:
            hist.observe(float(value))
        exact = float(np.percentile(samples, q))
        estimate = hist.percentile(q)
        # Interpolation within a geometric bucket grid: coarse, but the
        # estimate must land within the bucket that holds the true value.
        assert estimate == pytest.approx(exact, rel=0.35, abs=1e-4)

    def test_estimates_track_numpy_on_lognormal_samples(self, rng):
        samples = np.exp(rng.normal(-4.0, 1.0, size=4000))
        hist = Histogram("h", buckets=LATENCY_BUCKETS)
        for value in samples:
            hist.observe(float(value))
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert hist.percentile(q) == pytest.approx(exact, rel=0.4)

    def test_quantiles_are_monotone_in_q(self, rng):
        hist = Histogram("h", buckets=LATENCY_BUCKETS)
        for value in rng.exponential(0.05, size=500):
            hist.observe(float(value))
        estimates = [hist.percentile(q) for q in (1, 25, 50, 75, 95, 99)]
        assert estimates == sorted(estimates)

    def test_p100_is_observed_max(self, rng):
        hist = Histogram("h")
        samples = rng.uniform(0, 0.2, size=100)
        for value in samples:
            hist.observe(float(value))
        assert hist.percentile(100) == pytest.approx(float(samples.max()))


class TestRegistry:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", link="a")
        b = registry.counter("x_total", link="a")
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", link="a")
        b = registry.counter("x_total", link="b")
        a.inc()
        assert b.value == 0.0
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_get_returns_registered_or_none(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", link="a")
        assert registry.get("x_total", link="a") is counter
        assert registry.get("x_total", link="zzz") is None

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", a="1", b="2")
        b = registry.counter("x", b="2", a="1")
        assert a is b

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help text").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds").observe(0.01)
        snap = registry.snapshot()
        kinds = {entry["name"]: entry["kind"] for entry in snap["metrics"]}
        assert kinds == {"c_total": "counter", "g": "gauge",
                        "h_seconds": "histogram"}
        by_name = {e["name"]: e for e in snap["metrics"]}
        assert by_name["c_total"]["value"] == 2.0
        assert by_name["c_total"]["help"] == "help text"
        assert by_name["h_seconds"]["count"] == 1

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0


class TestDrainMerge:
    def _filled_registry(self, counter_amount: float, gauge_level: float,
                         samples: list[float]) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(counter_amount)
        registry.gauge("depth").set(gauge_level)
        hist = registry.histogram("latency_seconds")
        for value in samples:
            hist.observe(value)
        return registry

    def test_merge_adds_counters_and_histograms_takes_gauge_max(self):
        parent = self._filled_registry(1, 5.0, [0.01, 0.02])
        parent.merge(self._filled_registry(2, 3.0, [0.04]).snapshot())
        assert parent.counter("jobs_total").value == 3.0
        assert parent.gauge("depth").value == 5.0
        hist = parent.histogram("latency_seconds")
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.07)
        assert hist.max == pytest.approx(0.04)

    def test_merge_creates_unknown_instruments(self):
        parent = MetricsRegistry()
        parent.merge(self._filled_registry(4, 1.0, [0.5]).snapshot())
        assert parent.counter("jobs_total").value == 4.0
        assert parent.histogram("latency_seconds").count == 1

    def test_merge_is_associative(self):
        """(a + b) + c == a + (b + c) for every instrument kind."""
        def snapshots():
            return [
                self._filled_registry(1, 2.0, [0.001, 0.3]).snapshot(),
                self._filled_registry(5, 9.0, [0.02]).snapshot(),
                self._filled_registry(2, 4.0, [0.07, 0.07, 8.0]).snapshot(),
            ]

        left = MetricsRegistry()
        ab = MetricsRegistry()
        a, b, c = snapshots()
        ab.merge(a)
        ab.merge(b)
        left.merge(ab.snapshot())
        left.merge(c)

        right = MetricsRegistry()
        bc = MetricsRegistry()
        a, b, c = snapshots()
        bc.merge(b)
        bc.merge(c)
        right.merge(a)
        right.merge(bc.snapshot())

        assert left.snapshot() == right.snapshot()

    def test_merge_is_commutative(self):
        a = self._filled_registry(1, 2.0, [0.001]).snapshot()
        b = self._filled_registry(5, 9.0, [0.02, 1.0]).snapshot()
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot() == ba.snapshot()

    def test_merge_rejects_mismatched_buckets(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0))
        other = MetricsRegistry()
        other.histogram("h", buckets=(1.0, 2.0, 3.0)).observe(1.5)
        snap = other.snapshot()
        with pytest.raises(ConfigurationError):
            parent.merge(snap)


class TestConcurrency:
    def test_parallel_increments_are_not_lost(self):
        counter = Counter("c")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(2000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16000.0

    def test_snapshot_under_concurrent_writes_is_consistent(self):
        """A histogram snapshot never shows a half-applied observe.

        Writers hammer one histogram while a reader snapshots; in every
        snapshot the bucket counts must sum to the streaming count and
        the sum must be consistent with count*value (all observations
        use the same value, so sum == count * value exactly).
        """
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.5, 1.0))
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            while not stop.is_set():
                hist.observe(0.25)

        def reader():
            for _ in range(300):
                entry = registry.snapshot()["metrics"][0]
                if sum(entry["counts"]) != entry["count"]:
                    errors.append("bucket counts out of sync with count")
                if entry["sum"] != pytest.approx(0.25 * entry["count"]):
                    errors.append("sum out of sync with count")

        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in writers:
            thread.start()
        reader()
        stop.set()
        for thread in writers:
            thread.join()
        assert errors == []

    def test_concurrent_instrument_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        seen = []

        def create():
            seen.append(registry.counter("x_total", link="shared"))

        threads = [threading.Thread(target=create) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instance is seen[0] for instance in seen)
        assert len(registry) == 1


class TestProcessDefault:
    def test_get_registry_is_a_singleton_per_process(self):
        assert get_registry() is get_registry()

    def test_reset_registry_swaps_the_instance(self):
        before = get_registry()
        before.counter("x").inc()
        reset_registry()
        after = get_registry()
        assert after is not before
        assert len(after) == 0
