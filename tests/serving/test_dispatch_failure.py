"""Batch-execution failure recovery: counters, retry, explicit failure.

Regression tests for the PR-4 fix: a micro-batch whose forward pass
raises used to propagate out of :meth:`InferenceServer.step`, losing
every other due batch and leaving no accounting trail.  Now the failure
lands on a counter, fresh requests are re-queued for one retry, and
requests that already burned their retry are failed explicitly.
"""

import numpy as np

from repro.serving import (
    InferenceServer,
    MicroBatchScheduler,
    ServingModelRegistry,
)
from repro.serving.scheduler import InferenceRequest
from repro.serving.server import MAX_DISPATCH_RETRIES


class FlakyModel:
    """Delegates to a real ensemble after failing the first N calls."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.fail_times = fail_times
        self.calls = 0

    def predict_degraded(self, **kwargs):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError(f"injected fault #{self.calls}")
        return self.inner.predict_degraded(**kwargs)


def flaky_server(serving_ensemble, fail_times, **options):
    registry = ServingModelRegistry()
    registry.register("base", FlakyModel(serving_ensemble, fail_times))
    return InferenceServer(registry, **options)


def feed(server, session_id, dataset, sample, *, instants=4, period=0.25):
    window = dataset.imu[sample]
    for k in range(instants):
        now = period * k
        server.ingest_imu(session_id, now, window[k % window.shape[0]])
        server.ingest_frame(session_id, now, dataset.images[sample])
    return period * (instants - 1)


def request(priority=0.0, session="drv-0", sequence=1):
    return InferenceRequest(
        session_id=session, sequence=sequence, submitted_at=0.0,
        deadline=0.025, priority=priority, model_key="base",
        window=np.zeros((4, 12)))


class TestServerRecovery:
    def test_transient_fault_retries_and_delivers(
            self, serving_ensemble, tiny_driving_dataset):
        server = flaky_server(serving_ensemble, fail_times=1)
        sid = server.open_session(0)
        now = feed(server, sid, tiny_driving_dataset, sample=0)
        assert server.request_verdict(sid, now)

        assert server.drain(now) == []  # first flush hits the fault
        assert server.stats.dispatch_failures == 1
        assert isinstance(server.last_dispatch_error, RuntimeError)
        assert server.scheduler.stats.requeued == 1
        assert server.scheduler.depth == 1

        (verdict,) = server.drain(now)  # retry succeeds
        assert verdict.session_id == sid
        assert server.stats.verdicts == 1
        assert server.stats.requests_failed == 0

    def test_persistent_fault_fails_requests_explicitly(
            self, serving_ensemble, tiny_driving_dataset):
        server = flaky_server(serving_ensemble, fail_times=100)
        sid = server.open_session(0)
        now = feed(server, sid, tiny_driving_dataset, sample=0)
        assert server.request_verdict(sid, now)

        for _ in range(MAX_DISPATCH_RETRIES + 1):
            assert server.drain(now) == []
        assert server.stats.dispatch_failures == MAX_DISPATCH_RETRIES + 1
        assert server.stats.requests_failed == 1
        assert server.scheduler.depth == 0  # not re-queued forever
        assert server.drain(now) == []      # queue actually empty

    def test_failed_request_trace_is_discarded(
            self, serving_ensemble, tiny_driving_dataset):
        server = flaky_server(serving_ensemble, fail_times=100)
        sid = server.open_session(0)
        now = feed(server, sid, tiny_driving_dataset, sample=0)
        assert server.request_verdict(sid, now)
        assert server.tracer.active_count == 1
        for _ in range(MAX_DISPATCH_RETRIES + 1):
            server.drain(now)
        assert server.tracer.active_count == 0
        assert server.traces() == []  # discarded, not archived

    def test_one_poison_batch_does_not_kill_the_step(
            self, serving_ensemble, tiny_driving_dataset):
        # Two modality groups flush together; the IMU-only batch poisons
        # its forward pass but the full-modality batch must still land.
        registry = ServingModelRegistry()
        flaky = FlakyModel(serving_ensemble, fail_times=0)
        registry.register("base", flaky)
        server = InferenceServer(registry)
        full = server.open_session(0)
        imu_only = server.open_session(1)
        now = feed(server, full, tiny_driving_dataset, sample=0)
        window = tiny_driving_dataset.imu[1]
        for k in range(4):
            server.ingest_imu(imu_only, 0.25 * k, window[k])
        assert server.request_verdict(full, now)
        assert server.request_verdict(imu_only, now)

        def poison_imu_only(images=None, imu=None):
            if images is None:
                raise RuntimeError("imu-only path poisoned")
            return serving_ensemble.predict_degraded(images=images, imu=imu)

        flaky.predict_degraded = poison_imu_only
        verdicts = server.drain(now)
        assert [v.session_id for v in verdicts] == [full]
        assert server.stats.dispatch_failures == 1
        assert server.scheduler.stats.requeued == 1

    def test_accounting_identity_holds_through_retry(
            self, serving_ensemble, tiny_driving_dataset):
        server = flaky_server(serving_ensemble, fail_times=1)
        sid = server.open_session(0)
        now = feed(server, sid, tiny_driving_dataset, sample=0)
        assert server.request_verdict(sid, now)
        server.drain(now)  # fault + requeue
        server.drain(now)  # retry delivers
        stats = server.scheduler.stats
        assert stats.submitted == 1            # requeue not re-counted
        assert stats.requeued == 1
        assert stats.dispatched == 2           # flushed twice
        assert stats.submitted + stats.requeued == stats.dispatched
        assert stats.shed == 0 and server.scheduler.depth == 0


class TestSchedulerRequeue:
    def test_requeue_head_inserts(self):
        scheduler = MicroBatchScheduler(max_batch=8)
        assert scheduler.submit(request(session="a", sequence=1), 0.0)
        assert scheduler.submit(request(session="b", sequence=1), 0.0)
        scheduler.requeue([request(session="retry", sequence=9)])
        (batch,) = scheduler.flush(0.0, force=True)
        assert [r.session_id for r in batch.requests] == \
            ["retry", "a", "b"]

    def test_requeue_bypasses_capacity(self):
        scheduler = MicroBatchScheduler(max_batch=8, capacity=1)
        assert scheduler.submit(request(session="a"), 0.0)
        scheduler.requeue([request(session="retry")])
        assert scheduler.depth == 2  # over capacity, nothing shed
        assert scheduler.stats.shed == 0

    def test_requeue_counts_separately_from_submit(self):
        scheduler = MicroBatchScheduler(max_batch=8)
        assert scheduler.submit(request(session="a"), 0.0)
        scheduler.requeue([request(session="r1"), request(session="r2")])
        assert scheduler.stats.submitted == 1
        assert scheduler.stats.requeued == 2

    def test_requeue_restamps_enqueue_wall_clock(self):
        scheduler = MicroBatchScheduler(max_batch=8)
        stale = request(session="retry")
        stale.enqueued_wall = -1.0
        scheduler.requeue([stale])
        assert stale.enqueued_wall > 0.0

    def test_requeued_priority_order_still_wins_at_flush(self):
        # Head insertion is a fairness bump for equal priorities; a
        # strictly higher-priority submission still dispatches first.
        scheduler = MicroBatchScheduler(max_batch=8)
        assert scheduler.submit(request(priority=2.0, session="vip"), 0.0)
        scheduler.requeue([request(priority=0.0, session="retry")])
        (batch,) = scheduler.flush(0.0, force=True)
        assert [r.session_id for r in batch.requests] == ["vip", "retry"]


def test_max_retries_is_one():
    """The recovery contract documented in DESIGN.md: exactly one retry."""
    assert MAX_DISPATCH_RETRIES == 1


def test_retry_counter_rides_on_the_request():
    req = request()
    assert req.retries == 0
    req.retries += 1
    assert req.retries == 1
    assert req.retries >= MAX_DISPATCH_RETRIES
