"""Serving observability: stage histograms, traces, snapshot merging."""

import numpy as np

from repro.obs.metrics import get_registry
from repro.serving import (
    AdmissionController,
    AdmissionDecision,
    InferenceServer,
    replay_concurrent_drives,
)

STAGES = ("admission", "queue", "forward", "combine")


def feed(server, session_id, dataset, sample, *, instants=4, period=0.25,
         start=0.0):
    """Stream one dataset sample's window/image into a session."""
    window = dataset.imu[sample]
    for k in range(instants):
        now = start + period * k
        server.ingest_imu(session_id, now, window[k % window.shape[0]])
        server.ingest_frame(session_id, now, dataset.images[sample])
    return start + period * (instants - 1)


def serve_one(server, dataset, *, driver=0, sample=0):
    """Open a session, feed it, and deliver one verdict."""
    sid = server.open_session(driver)
    now = feed(server, sid, dataset, sample=sample)
    assert server.request_verdict(sid, now)
    (verdict,) = server.drain(now)
    return sid, verdict


def find_metric(snapshot, name, **labels):
    """The snapshot entry for ``name`` whose labels include ``labels``."""
    for entry in snapshot["metrics"]:
        if entry["name"] == name and all(
                entry["labels"].get(key) == value
                for key, value in labels.items()):
            return entry
    return None


class TestStageHistograms:
    def test_every_stage_observed_once_per_verdict(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        for stage in STAGES:
            hist = server._stage[stage]
            assert hist.count == 1, stage
            assert hist.sum >= 0.0

    def test_stage_histograms_land_in_snapshot(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        snapshot = server.metrics_snapshot()
        for stage in STAGES:
            entry = find_metric(snapshot, f"serving_stage_{stage}_seconds")
            assert entry is not None, stage
            assert entry["count"] == 1

    def test_verdict_latency_histogram_counts_verdicts(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        entry = find_metric(server.metrics_snapshot(),
                            "serving_verdict_latency_seconds",
                            server=server.stats.label)
        assert entry["count"] == 1

    def test_queue_latency_uses_wall_clock_stamps(
            self, serving_ensemble, tiny_driving_dataset):
        # Simulation time stands still (same `now` at submit and drain),
        # so a nonzero queue observation proves wall stamps were used.
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        assert server._stage["queue"].max > 0.0


class TestTracePropagation:
    def test_one_complete_trace_per_verdict(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        sid, _ = serve_one(server, tiny_driving_dataset)
        assert server.tracer.active_count == 0
        (trace,) = server.traces()
        assert trace["complete"] is True
        assert trace["name"] == f"verdict/{sid}"
        assert [span["name"] for span in trace["spans"]] == \
            ["admission", "queue", "forward", "combine"]

    def test_forward_span_carries_batch_meta(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        (trace,) = server.traces()
        forward = next(span for span in trace["spans"]
                       if span["name"] == "forward")
        assert forward["meta"] == {"batch_size": 1, "modality": "both"}

    def test_batched_sessions_each_get_their_own_trace(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble, max_batch=8)
        sids = [server.open_session(d) for d in range(3)]
        for index, sid in enumerate(sids):
            feed(server, sid, tiny_driving_dataset, sample=index)
        for sid in sids:
            assert server.request_verdict(sid, 0.75)
        verdicts = server.drain(0.75)
        assert len(verdicts) == 3
        traces = server.traces()
        assert sorted(trace["name"] for trace in traces) == \
            sorted(f"verdict/{sid}" for sid in sids)
        assert all(trace["complete"] for trace in traces)

    def test_unservable_request_mints_no_trace(self, serving_ensemble):
        server = InferenceServer.for_model(serving_ensemble)
        server.open_session(0)
        assert not server.request_verdict("drv-0", 0.0)
        assert server.tracer.active_count == 0


class TestTraceDiscard:
    def test_shed_request_trace_is_discarded(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble,
                                           queue_capacity=1)
        low = server.open_session(0, base_priority=0.0)
        high = server.open_session(1, base_priority=5.0)
        for index, sid in enumerate((low, high)):
            feed(server, sid, tiny_driving_dataset, sample=index)
        assert server.request_verdict(low, 0.75)
        assert server.tracer.active_count == 1
        # The higher-priority request evicts the queued one; the victim's
        # trace must not stay active forever.
        assert server.request_verdict(high, 0.75)
        assert server.scheduler.stats.shed == 1
        assert server.tracer.active_count == 1
        (verdict,) = server.drain(0.75)
        assert verdict.session_id == high
        assert server.tracer.active_count == 0

    def test_scheduler_reject_discards_trace(
            self, serving_ensemble, tiny_driving_dataset):
        class AlwaysAdmit(AdmissionController):
            def admit_request(self, priority, scheduler):
                return AdmissionDecision.ADMIT

        # With admission out of the way the scheduler itself rejects the
        # equal-priority overflow request — the path that must discard.
        server = InferenceServer.for_model(
            serving_ensemble, queue_capacity=1, admission=AlwaysAdmit())
        sids = [server.open_session(d) for d in range(2)]
        for index, sid in enumerate(sids):
            feed(server, sid, tiny_driving_dataset, sample=index)
        assert server.request_verdict(sids[0], 0.75)
        assert not server.request_verdict(sids[1], 0.75)
        assert server.stats.rejected == 1
        assert server.tracer.active_count == 1


class TestDegradedAccounting:
    def test_degraded_verdicts_counted(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble)
        sid = server.open_session(0)
        window = tiny_driving_dataset.imu[0]
        for k in range(4):
            server.ingest_imu(sid, 0.25 * k, window[k])
        assert server.request_verdict(sid, 0.75)  # never saw a frame
        (verdict,) = server.drain(0.75)
        assert verdict.degraded
        entry = find_metric(server.metrics_snapshot(),
                            "serving_degraded_verdicts_total")
        assert entry["value"] == 1


class TestObservabilityToggle:
    def test_disabled_keeps_counters_but_not_timings(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble,
                                           observability=False)
        serve_one(server, tiny_driving_dataset)
        assert server.stats.verdicts == 1
        assert server.scheduler.stats.batches == 1
        assert server.traces() == []
        for stage in STAGES:
            assert server._stage[stage].count == 0


class TestMetricsSnapshotMerge:
    def test_merges_server_and_process_registries(
            self, serving_ensemble, tiny_driving_dataset):
        for member in (serving_ensemble.cnn.model,
                       serving_ensemble.imu_model.model):
            member.invalidate_plans()   # compile under this registry
        server = InferenceServer.for_model(serving_ensemble)
        serve_one(server, tiny_driving_dataset)
        get_registry().counter("process_side_marker_total").inc(3)
        snapshot = server.metrics_snapshot()
        assert find_metric(snapshot, "serving_verdicts_total")["value"] == 1
        assert find_metric(snapshot, "process_side_marker_total")["value"] == 3
        # Compiling the plans published nn telemetry globally.
        assert find_metric(snapshot, "nn_plan_compiles_total")["value"] >= 1

    def test_shared_registry_is_not_double_counted(
            self, serving_ensemble, tiny_driving_dataset):
        server = InferenceServer.for_model(serving_ensemble,
                                           metrics=get_registry())
        serve_one(server, tiny_driving_dataset)
        entry = find_metric(server.metrics_snapshot(),
                            "serving_verdicts_total")
        assert entry["value"] == 1

    def test_two_servers_never_mix_series(
            self, serving_ensemble, tiny_driving_dataset):
        first = InferenceServer.for_model(serving_ensemble)
        second = InferenceServer.for_model(serving_ensemble)
        serve_one(first, tiny_driving_dataset)
        serve_one(second, tiny_driving_dataset)
        assert first.stats.label != second.stats.label
        entry = find_metric(first.metrics_snapshot(),
                            "serving_verdicts_total",
                            server=first.stats.label)
        assert entry["value"] == 1


class TestReplayObservability:
    def test_replay_report_carries_metrics_and_traces(
            self, serving_ensemble):
        report = replay_concurrent_drives(
            serving_ensemble, drivers=2, duration=2.0, seed=5)
        for stage in STAGES:
            entry = find_metric(report.metrics,
                                f"serving_stage_{stage}_seconds")
            assert entry is not None, stage
            assert entry["count"] > 0
        assert any(trace["complete"] for trace in report.traces)
        complete = next(t for t in report.traces if t["complete"])
        names = {span["name"] for span in complete["spans"]}
        assert {"admission", "queue", "forward", "combine"} <= names

    def test_replay_without_observability_is_empty(self, serving_ensemble):
        report = replay_concurrent_drives(
            serving_ensemble, drivers=2, duration=2.0, seed=5,
            observability=False)
        assert report.metrics == {}
        assert report.traces == []
        assert report.verdicts > 0


def test_batch_size_distribution_recorded(
        serving_ensemble, tiny_driving_dataset):
    server = InferenceServer.for_model(serving_ensemble, max_batch=8)
    sids = [server.open_session(d) for d in range(3)]
    for index, sid in enumerate(sids):
        feed(server, sid, tiny_driving_dataset, sample=index)
    for sid in sids:
        assert server.request_verdict(sid, 0.75)
    server.drain(0.75)
    entry = find_metric(server.metrics_snapshot(), "serving_batch_size")
    assert entry["count"] == 1
    assert entry["sum"] == 3.0
    assert np.isclose(entry["max"], 3.0)
