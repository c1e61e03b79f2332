"""InferenceServer end-to-end: verdicts, degradation, batching, hot swap."""

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving import (
    AdmissionController,
    InferenceServer,
    ServingModelRegistry,
)


def feed(server, session_id, dataset, sample, *, instants=4, period=0.25,
         frames=True, start=0.0):
    """Stream one dataset sample's window/image into a session."""
    window = dataset.imu[sample]
    for k in range(instants):
        now = start + period * k
        server.ingest_imu(session_id, now, window[k % window.shape[0]])
        if frames:
            server.ingest_frame(session_id, now, dataset.images[sample])
    return start + period * (instants - 1)


def test_full_modality_verdict(serving_ensemble, tiny_driving_dataset):
    server = InferenceServer.for_model(serving_ensemble, max_batch=4)
    sid = server.open_session(0)
    now = feed(server, sid, tiny_driving_dataset, sample=0)
    assert server.request_verdict(sid, now)
    verdicts = server.step(now + server.scheduler.max_delay)
    assert len(verdicts) == 1
    verdict = verdicts[0]
    assert verdict.session_id == sid
    assert not verdict.degraded
    assert verdict.missing == ()
    assert verdict.probabilities.shape[-1] >= 2
    np.testing.assert_allclose(verdict.probabilities.sum(), 1.0, atol=1e-6)
    assert 0.0 <= verdict.confidence <= 1.0
    assert server.poll(sid) == [verdict]
    assert server.poll(sid) == []  # outbox drained


def test_stale_camera_degrades_instead_of_silencing(
        serving_ensemble, tiny_driving_dataset):
    server = InferenceServer.for_model(serving_ensemble)
    sid = server.open_session(1)
    server.ingest_frame(sid, 0.0, tiny_driving_dataset.images[1])
    window = tiny_driving_dataset.imu[1]
    for k in range(4):
        server.ingest_imu(sid, 5.0 + 0.25 * k, window[k])
    now = 5.75  # camera last seen 5.75 s ago, stale_after is 1.0
    assert server.request_verdict(sid, now)
    (verdict,) = server.drain(now)
    assert verdict.degraded
    assert "frames" in verdict.missing
    assert server.session(sid).counters.degraded_verdicts == 1


def test_unservable_when_all_streams_dead(serving_ensemble):
    server = InferenceServer.for_model(serving_ensemble)
    sid = server.open_session(2)
    assert not server.request_verdict(sid, 0.0)
    assert server.stats.unservable == 1


def test_sessions_coalesce_into_one_batch(
        serving_ensemble, tiny_driving_dataset):
    server = InferenceServer.for_model(serving_ensemble, max_batch=8)
    sids = [server.open_session(d) for d in range(3)]
    for index, sid in enumerate(sids):
        feed(server, sid, tiny_driving_dataset, sample=index)
    for sid in sids:
        assert server.request_verdict(sid, 0.75)
    verdicts = server.step(0.75 + server.scheduler.max_delay)
    assert len(verdicts) == 3
    assert all(v.batch_size == 3 for v in verdicts)
    assert server.scheduler.stats.batches == 1


def test_batched_matches_unbatched_predictions(
        serving_ensemble, tiny_driving_dataset):
    def serve(max_batch):
        server = InferenceServer.for_model(serving_ensemble,
                                           max_batch=max_batch)
        results = {}
        sids = [server.open_session(d) for d in range(4)]
        for index, sid in enumerate(sids):
            feed(server, sid, tiny_driving_dataset, sample=10 + index)
        for sid in sids:
            server.request_verdict(sid, 0.75)
            if max_batch == 1:
                for verdict in server.drain(0.75):
                    results[verdict.session_id] = verdict.predicted
        for verdict in server.drain(0.75):
            results[verdict.session_id] = verdict.predicted
        return results

    assert serve(max_batch=4) == serve(max_batch=1)


def test_hot_swap_applies_to_queued_requests(
        serving_ensemble, tiny_driving_dataset):
    registry = ServingModelRegistry()
    registry.register("base", serving_ensemble)
    server = InferenceServer(registry, max_batch=8)
    sid = server.open_session(0)
    now = feed(server, sid, tiny_driving_dataset, sample=0)
    assert server.request_verdict(sid, now)
    # Swap while the request is still queued: it must resolve the new
    # generation at dispatch time, not the one current at submit time.
    assert registry.swap("base", serving_ensemble) == 2
    (verdict,) = server.drain(now)
    assert verdict.model_generation == 2
    assert verdict.model_key == "base"


def test_mixed_privacy_levels_route_to_their_variants(
        serving_ensemble, tiny_driving_dataset):
    """Sessions at None/"medium"/"high" share one step loop, each
    served by the variant its privacy level routes to."""
    registry = ServingModelRegistry()
    registry.register("full", serving_ensemble)
    registry.register("med", serving_ensemble)
    registry.bind(None, "full")
    registry.bind("medium", "med")
    server = InferenceServer(registry, max_batch=8)
    levels = [None, "medium", "high", None, "medium", "high"]
    sids = [server.open_session(d, privacy=level)
            for d, level in enumerate(levels)]
    for index, sid in enumerate(sids):
        feed(server, sid, tiny_driving_dataset, sample=index)
    for sid in sids:
        assert server.request_verdict(sid, 0.75)
    verdicts = server.drain(0.75)
    assert sorted(v.session_id for v in verdicts) == sorted(sids)
    routed = {v.session_id: v.model_key for v in verdicts}
    # "high" has no variant of its own and walks back to "medium".
    assert [routed[sid] for sid in sids] == [
        "full", "med", "med", "full", "med", "med"]
    assert {v.batch_size for v in verdicts} == {2, 4}


def test_session_lifecycle_errors(serving_ensemble):
    server = InferenceServer.for_model(
        serving_ensemble,
        admission=AdmissionController(max_sessions=1))
    sid = server.open_session(7)
    with pytest.raises(ServingError):
        server.open_session(7)  # duplicate id and sessions full
    closed = server.close_session(sid)
    assert closed.session_id == sid
    with pytest.raises(ServingError):
        server.session(sid)
    server.open_session(8)  # slot freed by the close
