"""Edge agent: local inference, spooled verdicts, end-to-end drain."""

import numpy as np

from repro.core.darnet import DriveScript
from repro.datasets.classes import DrivingBehavior
from repro.edge import EdgeAgent, EdgeSpool, EdgeUplinkReceiver, EdgeUploader
from repro.serving import (
    ServingModelRegistry,
    StoreAndForwardSink,
    VerdictJournal,
)
from repro.scenarios import synthesize_trace
from repro.streaming.reliability import reliable_link


def build_agent(tmp_path, model, *, duration=4.0, grid=0.25,
                drop_probability=0.0, sink=None):
    instants = np.arange(0.0, duration, grid)
    script = DriveScript.standard(segment_seconds=1.0, gap_seconds=0.25)
    trace = synthesize_trace(0, instants, script=script,
                             rng=np.random.default_rng(42))
    sender, receiver = reliable_link(
        "uplink", base_latency=0.01, drop_probability=drop_probability,
        rng=np.random.default_rng(9), max_attempts=100)
    registry = ServingModelRegistry()
    registry.register("edge", model)
    spool = EdgeSpool.open(str(tmp_path / "spool.wal"))
    uploader = EdgeUploader(spool, sender, agent_id="edge-0", window=8)
    agent = EdgeAgent("edge-0", registry=registry, spool=spool,
                      uploader=uploader, trace=trace, instants=instants,
                      intervals=(grid, grid, grid, 2 * grid))
    if sink is None:
        journal = VerdictJournal(str(tmp_path / "controller.wal"))
        sink = StoreAndForwardSink(journal)
    uplink = EdgeUplinkReceiver(receiver, sink)
    return agent, uplink, sink, instants, grid


def run_drive(agent, uplink, instants, grid, settle=20):
    for instant in instants:
        agent.step(float(instant))
        uplink.poll(float(instant))
    now = float(instants[-1]) + grid
    for _ in range(settle):
        agent.step(now)
        uplink.poll(now)
        now += grid


def test_one_verdict_per_sensor_batch_and_full_drain(tmp_path,
                                                     edge_ensemble):
    agent, uplink, sink, instants, grid = build_agent(tmp_path,
                                                      edge_ensemble)
    run_drive(agent, uplink, instants, grid)
    assert agent.verdicts == len(instants)
    # No new sensor data after the drive: the infer loop stays quiet and
    # the spool drains completely.
    assert agent.spool.depth == 0
    produced = agent.verdicts + agent.clips
    assert len(sink.delivered) == produced
    assert len({(r.session_id, r.sequence)
                for r in sink.delivered}) == produced
    agent.close()


def test_clips_ride_along_for_non_normal_verdicts(tmp_path, edge_ensemble):
    agent, uplink, sink, instants, grid = build_agent(tmp_path,
                                                      edge_ensemble)
    run_drive(agent, uplink, instants, grid)
    abnormal = sum(1 for r in sink.delivered if r.kind == "verdict"
                   and r.predicted != int(DrivingBehavior.NORMAL))
    clips = [r for r in sink.delivered if r.kind == "clip"]
    assert len(clips) == agent.clips == abnormal
    for clip in clips:
        assert clip.reason == "evidence-clip"
    agent.close()


def test_flaky_uplink_still_delivers_exactly_once(tmp_path, edge_ensemble):
    agent, uplink, sink, instants, grid = build_agent(
        tmp_path, edge_ensemble, drop_probability=0.3)
    run_drive(agent, uplink, instants, grid, settle=80)
    produced = agent.verdicts + agent.clips
    ids = [(r.session_id, r.sequence) for r in sink.delivered]
    assert len(ids) == len(set(ids)) == produced
    assert agent.spool.depth == 0
    agent.close()


def test_restart_resumes_sequence_and_loses_no_verdicts(tmp_path,
                                                        edge_ensemble):
    """A restarted agent on an existing spool must continue numbering
    where the previous incarnation stopped: a reused sequence is either
    dropped at append (already acked) or deduped by the controller —
    either way a verdict silently lost."""
    agent, uplink, sink, instants, grid = build_agent(tmp_path,
                                                      edge_ensemble)
    half = len(instants) // 2
    for instant in instants[:half]:
        agent.step(float(instant))
        uplink.poll(float(instant))
    first_produced = agent.verdicts + agent.clips
    assert first_produced > 0
    assert agent.spool.acked > 0  # some uploads already acknowledged
    agent.spool.sync()
    del agent, uplink  # SIGKILL: no close(), no compaction

    # The successor reopens the same spool and uploads into the same
    # controller sink (which dedups by (agent_id, sequence)).
    successor, uplink, sink, instants, grid = build_agent(
        tmp_path, edge_ensemble, sink=sink)
    assert successor.spool.last_sequence == first_produced
    run_drive(successor, uplink, instants, grid, settle=40)
    produced = first_produced + successor.verdicts + successor.clips
    ids = [(r.session_id, r.sequence) for r in sink.delivered]
    # Nothing reused, nothing lost: both incarnations' records reach the
    # controller exactly once, in one gapless sequence space.
    assert len(ids) == len(set(ids)) == produced
    assert max(sequence for _, sequence in ids) == produced
    assert successor.spool.depth == 0
    successor.close()


def test_report_shape(tmp_path, edge_ensemble):
    agent, uplink, _, instants, grid = build_agent(tmp_path, edge_ensemble)
    run_drive(agent, uplink, instants, grid, settle=5)
    report = agent.report()
    assert report["agent_id"] == "edge-0"
    assert report["verdicts"] == agent.verdicts
    assert set(report["tasks"]) == {"sensor", "infer", "upload"}
    assert all(entry["failures"] == 0 for entry in report["tasks"].values())
    agent.close()
