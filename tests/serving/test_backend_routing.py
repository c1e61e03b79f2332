"""Backend selection through the serving tier and the edge agent.

The backend switch is thread-local, and neither the server's dispatch
nor the edge agent's infer step selects a backend of its own: each runs
under whatever the calling thread selected, and a replay runs its loop
under the backend it is given.  These tests use a recording stub model
so the selection is observable without a trained ensemble.
"""

from __future__ import annotations

import numpy as np

from repro.core.darnet import DriveScript
from repro.core.ensemble import DegradedPrediction
from repro.edge import EdgeAgent, EdgeSpool, EdgeUploader
from repro.nn.compile import active_backend_name, using_backend
from repro.scenarios import synthesize_trace
from repro.serving import InferenceServer
from repro.serving.registry import as_registry
from repro.serving.replay import replay_concurrent_drives
from repro.streaming.reliability import reliable_link


class RecordingModel:
    """predict_degraded stub that logs the active inference backend."""

    def __init__(self) -> None:
        self.backends_seen: list[str] = []

    def predict_degraded(self, *, images=None, imu=None
                         ) -> DegradedPrediction:
        count = len(images) if images is not None else len(imu)
        self.backends_seen.append(active_backend_name())
        return DegradedPrediction(
            probabilities=np.full((count, 2), 0.5, dtype=np.float32),
            predictions=np.zeros(count, dtype=np.int64),
            confidence=np.full(count, 0.5, dtype=np.float32),
            degraded=images is None,
            missing=("frames",) if images is None else (),
        )


def _verdict_for(server, driver, now):
    sid = server.open_session(driver)
    window = np.zeros(12, dtype=np.float32)
    for k in range(4):
        server.ingest_imu(sid, now + 0.25 * k, window)
    deadline = now + 0.75
    assert server.request_verdict(sid, deadline)
    return server.drain(deadline + server.scheduler.max_delay)


def test_server_dispatch_runs_under_the_callers_backend():
    model = RecordingModel()
    server = InferenceServer.for_model(model, max_batch=4)
    with using_backend("reference"):
        assert _verdict_for(server, 0, 0.0)
    assert _verdict_for(server, 1, 10.0)
    assert model.backends_seen == ["reference", "numpy-compiled"]


def test_edge_agent_infers_under_the_callers_backend(tmp_path):
    model = RecordingModel()
    instants = np.arange(0.0, 1.0, 0.25)
    trace = synthesize_trace(
        0, instants, script=DriveScript.standard(segment_seconds=1.0),
        rng=np.random.default_rng(0))
    sender, _ = reliable_link("uplink", rng=np.random.default_rng(1))
    spool = EdgeSpool.open(str(tmp_path / "spool.wal"))
    agent = EdgeAgent("edge-0", registry=as_registry(model), spool=spool,
                      uploader=EdgeUploader(spool, sender, agent_id="edge-0"),
                      trace=trace, instants=instants)
    with using_backend("reference"):
        agent.step(float(instants[0]))
    agent.close()
    assert agent.verdicts == 1
    assert model.backends_seen == ["reference"]


def test_replay_runs_every_batch_under_its_backend():
    model = RecordingModel()
    report = replay_concurrent_drives(model, drivers=2, duration=2.0,
                                      kill_camera=0, backend="reference")
    assert report.verdicts > 0
    assert model.backends_seen
    assert set(model.backends_seen) == {"reference"}
    assert active_backend_name() == "numpy-compiled"
