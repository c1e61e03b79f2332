"""The three workloads: fleet replay, journaled supervision, edge fleet.

Each workload synthesizes its inputs from the seed once (untimed), then
runs *passes*.  A pass builds the serving, supervision or edge entry
point in its default configuration from the saved model (the timed
set-up), replays every grid instant through it in a closed loop (the
timed loop), tears it down and audits what was delivered (untimed).
Every pass of one seed replays identical inputs, so every pass must
deliver the identical verdict stream.

With a :class:`~spans.Tracer` the pass also wraps the public calls of
each layer on the objects it built; without one nothing is wrapped.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from checks import Ledger
from spans import Tracer

from repro.core.model_store import load_ensemble
from repro.core.privacy import PrivacyLevel
from repro.edge.agent import EdgeAgent
from repro.edge.spool import (
    KIND_CLIP,
    EdgeSpool,
    SpoolRecord,
    frame_spool_record,
    replay_spool,
)
from repro.edge.uploader import EdgeUplinkReceiver, EdgeUploader
from repro.scenarios import ScenarioSpec, compile_scenario
from repro.serving.journal import (
    KIND_DEFERRED,
    StoreAndForwardSink,
    VerdictJournal,
    replay_journal,
)
from repro.serving.registry import ServingModelRegistry
from repro.serving.server import InferenceServer
from repro.serving.supervisor import ShardSupervisor
from repro.streaming.reliability import reliable_link

HERE = os.path.dirname(os.path.abspath(__file__))
MIXED_SPEC = os.path.join(HERE, "mixed_fleet_spec.json")

#: ``repro serve --replay``'s micro-batch flush deadline.
REPLAY_DEADLINE = 0.025
#: ``repro chaos --serving``'s shard count.
SUPERVISED_SHARDS = 3
#: The edge replayer's tick: the finest default ``EdgeAgent`` loop period.
EDGE_TICK = 0.05
#: Simulated seconds the edge fleet gets after the drive to empty its spools.
EDGE_DRAIN_LIMIT = 120.0
#: The uplink of the edge chaos harness: 20 ms, 20 % jitter, 5 % loss.
UPLINK = {"base_latency": 0.02, "jitter": 0.2, "drop_probability": 0.05,
          "max_attempts": 200, "buffer_limit": 256}
PRIVACY_CYCLE = (None, PrivacyLevel.LOW, PrivacyLevel.MEDIUM,
                 PrivacyLevel.HIGH)


@dataclass(frozen=True)
class Sizes:
    """Fleet sizes; :data:`TINY` is for the benchmark's own tests."""

    fleet_drivers: int = 48
    #: Long enough that the p99 tail is more than the one instant where
    #: the killed cameras go stale.
    fleet_duration: float = 30.0
    killed_cameras: int = 2
    mixed_drivers: int = 48
    edge_agents: int = 8
    #: 8 agents x 4 Hz x 32 s = 1,024 verdicts: ten beyond the p99.
    edge_duration: float = 32.0
    #: Larger backlogs make the loop disk-bound, and a shared disk then
    #: swings whole runs (README, "Why the edge backlog is 100 records").
    edge_backlog: int = 100


TINY = Sizes(fleet_drivers=4, fleet_duration=4.0, killed_cameras=1,
             mixed_drivers=4, edge_agents=2, edge_duration=2.0,
             edge_backlog=20)


class LoopClock:
    """Splits the timed loop into windows: one grid instant, or one edge
    tick, each.  Windows replay identical work in every pass, which is
    what lets the harness take a median per window across passes."""

    def __init__(self) -> None:
        self.start = self.mark = time.perf_counter()
        self.windows: list[float] = []

    def lap(self) -> None:
        now = time.perf_counter()
        self.windows.append(now - self.mark)
        self.mark = now


@dataclass
class PassResult:
    """What one timed loop delivered, plus its untimed audit."""

    clock: LoopClock
    ledger: Ledger
    #: Wall seconds per delivered verdict, keyed by what identifies the
    #: verdict in every pass.
    latencies: dict
    violations: list[str] = field(default_factory=list)
    #: Layer counters read from the program's public attributes.
    counters: dict = field(default_factory=dict)

    @property
    def loop_start(self) -> float:
        return self.clock.start

    @property
    def loop_end(self) -> float:
        return self.clock.mark

    @property
    def loop_s(self) -> float:
        return self.clock.mark - self.clock.start


def fresh_dir(workdir: str) -> str:
    """A new directory for one pass's files.

    Passes never delete an earlier pass's files: on a disk mounted with
    ``discard``, freeing blocks queues device work that would land in the
    next timed loop.  The harness removes ``workdir`` after the run.
    """
    path = os.path.join(workdir, f"pass-{len(os.listdir(workdir))}")
    os.makedirs(path)
    return path


def timed_load(directory: str, tracer: Tracer | None):
    if tracer is None:
        return load_ensemble(directory)
    return tracer.call("core.model_store.load", load_ensemble, directory)


def _batch_rows(args, kwargs) -> int:
    array = args[0] if args else next(iter(kwargs.values()))
    return len(array)


def _ensemble_rows(args, kwargs) -> int:
    del args
    return max(len(value) for value in kwargs.values() if value is not None)


def wrap_model(tracer: Tracer, model) -> None:
    """Spans around the ensemble, its two members and its combiner."""
    tracer.wrap(model, "predict_degraded", "core.ensemble",
                rows=_ensemble_rows)
    tracer.wrap(model.cnn, "predict_proba", "nn.cnn", rows=_batch_rows)
    tracer.wrap(model.imu_model, "predict_proba", "nn.rnn",
                rows=_batch_rows)
    for method in ("predict_proba", "predict_proba_cnn_only",
                   "predict_proba_imu_only"):
        tracer.wrap(model.combiner, method, "core.bayesian")


class SchedulerProbe:
    """Batch sizes and queue waits seen at the scheduler's boundary."""

    def __init__(self) -> None:
        self.refused = 0
        self.batches = 0
        self.rows = 0
        self.waits: list[float] = []
        self._submitted: dict[int, float] = {}

    def wrap_server(self, tracer: Tracer, server: InferenceServer) -> None:
        tracer.wrap(server, "ingest_imu", "serving.sessions.ingest")
        tracer.wrap(server, "ingest_frame", "serving.sessions.ingest")
        tracer.wrap(server, "request_verdict", "serving.admission",
                    on_result=self._on_request)
        tracer.wrap(server, "step", "serving.server.step")
        tracer.wrap(server, "drain", "serving.server.drain")
        tracer.wrap(server.scheduler, "submit", "serving.scheduler.submit",
                    on_result=self._on_submit)
        tracer.wrap(server.scheduler, "flush", "serving.scheduler.flush",
                    on_result=self._on_flush)

    def _on_request(self, queued, args, kwargs) -> None:
        if not queued:
            self.refused += 1

    def _on_submit(self, accepted, args, kwargs) -> None:
        if accepted:
            self._submitted[id(args[0])] = time.perf_counter()

    def _on_flush(self, batches, args, kwargs) -> None:
        flushed = time.perf_counter()
        for batch in batches:
            self.batches += 1
            self.rows += len(batch.requests)
            for request in batch.requests:
                submitted = self._submitted.pop(id(request), None)
                if submitted is not None:
                    self.waits.append(flushed - submitted)

    def counters(self) -> dict:
        return {"admission_refused": self.refused,
                "batches": self.batches, "batch_rows": self.rows,
                "queue_wait_p50_ms": (1e3 * statistics.median(self.waits)
                                      if self.waits else 0.0)}


def _stream_line(*fields) -> str:
    return ":".join(str(value) for value in fields)


class FleetReplay:
    """48 drivers on the paper sweep through one ``InferenceServer``,
    configured as ``repro serve --replay`` configures it, with two
    cameras killed mid-drive."""

    name = "fleet-replay"

    def __init__(self, seed: int, sizes: Sizes, models, workdir: str) -> None:
        del workdir  # the replay touches no disk
        self.model_dir = models.base
        drivers = sizes.fleet_drivers
        spec = ScenarioSpec.paper_sweep(
            drivers=drivers, duration=sizes.fleet_duration, seed=seed)
        compiled = compile_scenario(spec)
        self.instants = [float(t) for t in compiled.instants]
        self.traces = compiled.traces()
        self.duration = spec.duration
        rng = np.random.default_rng(seed)
        self.killed = {int(i) for i in rng.choice(
            drivers, size=sizes.killed_cameras, replace=False)}
        self.kill_time = 0.5 * spec.duration

    def reset(self) -> None:
        pass

    def setup(self, tracer: Tracer | None):
        model = timed_load(self.model_dir, tracer)
        drivers = len(self.traces)
        server = InferenceServer.for_model(
            model, max_batch=drivers, max_delay=REPLAY_DEADLINE,
            queue_capacity=4 * drivers)
        sessions = [server.open_session(trace.driver_id)
                    for trace in self.traces]
        probe = SchedulerProbe()
        if tracer is not None:
            wrap_model(tracer, model)
            probe.wrap_server(tracer, server)
        return server, sessions, probe

    def run(self, state, tracer: Tracer | None) -> PassResult:
        server, sessions, probe = state
        ledger = Ledger()
        ingested: dict[tuple[str, float], float] = {}
        latencies: dict[tuple[str, float], float] = {}
        degraded: set[str] = set()

        def absorb(verdicts) -> None:
            done = time.perf_counter()
            for verdict in verdicts:
                key = (verdict.session_id, verdict.timestamp)
                latencies[key] = done - ingested.pop(key, done)
                ledger.delivered.append(key)
                ledger.stream.append(_stream_line(
                    verdict.session_id, verdict.sequence, verdict.timestamp,
                    verdict.predicted, int(verdict.degraded)))
                if verdict.degraded:
                    degraded.add(verdict.session_id)

        killed = {sessions[i] for i in self.killed}
        clock = LoopClock()
        for k, now in enumerate(self.instants):
            if tracer is not None:
                tracer.instant = now
            for sid, trace in zip(sessions, self.traces):
                began = time.perf_counter()
                server.ingest_imu(sid, now, trace.imu[k])
                masked = (trace.frame_mask is not None
                          and not trace.frame_mask[k])
                if not masked and not (sid in killed
                                       and now >= self.kill_time):
                    server.ingest_frame(sid, now, trace.frames[k])
                ledger.requested.append((sid, now))
                if server.request_verdict(sid, now):
                    ingested[(sid, now)] = began
            absorb(server.step(now))
            absorb(server.step(now + REPLAY_DEADLINE))
            clock.lap()
        absorb(server.drain(self.duration))
        clock.lap()
        server.close()

        violations = []
        stray = sorted(degraded - killed)
        if stray:
            violations.append(f"degraded verdicts for sessions whose camera "
                              f"was not killed: {stray[:3]}")
        silent = sorted(killed - degraded)
        if silent:
            violations.append(f"killed cameras without a degraded verdict: "
                              f"{silent[:3]}")
        return PassResult(clock, ledger, latencies, violations,
                          probe.counters())


class SupervisedMixed:
    """The mixed-fleet spec at 48 drivers through a 3-shard
    ``ShardSupervisor`` journaling every verdict to local disk."""

    name = "supervised-mixed"

    def __init__(self, seed: int, sizes: Sizes, models, workdir: str) -> None:
        self.model_dir = models.extended
        self.workdir = workdir
        self.journal_path = ""
        spec = ScenarioSpec.load(MIXED_SPEC).with_overrides(
            drivers=sizes.mixed_drivers, seed=seed)
        compiled = compile_scenario(spec)
        self.instants = [float(t) for t in compiled.instants]
        self.traces = compiled.traces()
        self.duration = spec.duration

    def reset(self) -> None:
        self.journal_path = os.path.join(fresh_dir(self.workdir),
                                         "verdicts.wal")

    def setup(self, tracer: Tracer | None):
        model = timed_load(self.model_dir, tracer)
        supervisor = ShardSupervisor(
            model, shards=SUPERVISED_SHARDS,
            journal=VerdictJournal(self.journal_path))
        sessions = [supervisor.open_session(trace.driver_id, now=0.0)
                    for trace in self.traces]
        probe = SchedulerProbe()
        if tracer is not None:
            wrap_model(tracer, model)
            tracer.wrap(supervisor, "step", "serving.supervisor.step")
            tracer.wrap(supervisor, "drain", "serving.supervisor.drain")
            tracer.wrap(supervisor, "request_verdict",
                        "serving.supervisor.request")
            tracer.wrap(supervisor, "ingest_imu", "serving.supervisor.ingest")
            tracer.wrap(supervisor, "ingest_frame",
                        "serving.supervisor.ingest")
            tracer.wrap(supervisor.checkpoints, "take",
                        "serving.checkpoint.take")
            tracer.wrap(supervisor.journal, "append", "serving.journal.append")
            tracer.wrap(supervisor.journal, "sync", "serving.journal.sync")
            for name in supervisor.shard_names:
                probe.wrap_server(tracer, supervisor.shard(name).server)
        return supervisor, sessions, probe

    def run(self, state, tracer: Tracer | None) -> PassResult:
        supervisor, sessions, probe = state
        sink = supervisor.sink
        ledger = Ledger()
        ingested: dict[tuple[str, int], float] = {}
        latencies: dict[tuple[str, int], float] = {}
        seen = 0

        def collect() -> None:
            nonlocal seen
            done = time.perf_counter()
            for record in sink.delivered[seen:]:
                key = record.record_id
                if record.kind == KIND_DEFERRED:
                    ledger.deferred.append(key)
                else:
                    latencies[key] = done - ingested.pop(key, done)
                    ledger.delivered.append(key)
                ledger.stream.append(_stream_line(
                    *key, record.kind, record.predicted,
                    int(record.degraded)))
            seen = len(sink.delivered)

        clock = LoopClock()
        for k, now in enumerate(self.instants):
            if tracer is not None:
                tracer.instant = now
            for sid, trace in zip(sessions, self.traces):
                began = time.perf_counter()
                supervisor.ingest_imu(sid, now, trace.imu[k])
                if trace.frame_mask is None or trace.frame_mask[k]:
                    supervisor.ingest_frame(sid, now, trace.frames[k])
                key = (sid, supervisor.request_verdict(sid, now))
                ledger.requested.append(key)
                ingested[key] = began
            supervisor.step(now)
            collect()
            supervisor.step(now + REPLAY_DEADLINE)
            collect()
            clock.lap()
        supervisor.drain(self.duration)
        collect()
        clock.lap()
        supervisor.close()

        violations = []
        lost = (set(ledger.requested) - supervisor.delivered_ids
                - supervisor.deferred_ids)
        if lost:
            violations.append(f"supervisor ledger: {len(lost)} windows "
                              "neither delivered nor deferred")
        replay = replay_journal(self.journal_path)
        unjournaled = set(ledger.delivered) - replay.ids
        if unjournaled:
            violations.append(f"{len(unjournaled)} delivered verdicts "
                              "missing from the journal replay")
        if replay.torn:
            violations.append(f"{replay.torn} torn journal frames")
        counters = probe.counters()
        counters["journal_bytes"] = os.path.getsize(self.journal_path)
        return PassResult(clock, ledger, latencies, violations, counters)


class EdgeFleet:
    """Eight ``EdgeAgent``s, privacy cycling none/L/M/H, each restarting
    with a 1,000-record unacked spool backlog and uploading over a lossy
    reliable link into one controller journal."""

    name = "edge-fleet"

    def __init__(self, seed: int, sizes: Sizes, models, workdir: str) -> None:
        self.model_dir = models.base
        self.seed = seed
        self.workdir = workdir
        self.backlog = sizes.edge_backlog
        spec = ScenarioSpec.paper_sweep(
            drivers=sizes.edge_agents, duration=sizes.edge_duration,
            seed=seed)
        compiled = compile_scenario(spec)
        self.instants = compiled.instants
        self.traces = compiled.traces()
        self.agent_ids = [f"edge-{i}" for i in range(sizes.edge_agents)]
        self.journal_path = self.spool_dir = ""
        self._backlogs = {agent_id: self._backlog_bytes(index, agent_id)
                          for index, agent_id in enumerate(self.agent_ids)}

    def _backlog_bytes(self, index: int, agent_id: str) -> bytes:
        """The WAL a vehicle restarts with after an offline stretch."""
        rng = np.random.default_rng([self.seed, index])
        frames = []
        for sequence in range(1, self.backlog + 1):
            timestamp = (sequence - self.backlog - 1) * 0.25
            predicted = int(rng.integers(0, 6))
            confidence = float(rng.uniform(0.3, 1.0))
            payload = ""
            kind = "verdict"
            if sequence % 4 == 0:
                kind = KIND_CLIP
                payload = rng.integers(0, 256, 256, dtype=np.uint8
                                       ).tobytes().hex()
            frames.append(frame_spool_record(SpoolRecord(
                agent_id=agent_id, sequence=sequence, timestamp=timestamp,
                kind=kind, predicted=predicted, confidence=confidence,
                payload=payload)))
        return b"".join(frames)

    def _spool_path(self, agent_id: str) -> str:
        return os.path.join(self.spool_dir, f"{agent_id}.wal")

    def reset(self) -> None:
        self.spool_dir = fresh_dir(self.workdir)
        self.journal_path = os.path.join(self.spool_dir, "controller.wal")
        for agent_id, blob in self._backlogs.items():
            with open(self._spool_path(agent_id), "wb") as handle:
                handle.write(blob)

    def setup(self, tracer: Tracer | None):
        model = timed_load(self.model_dir, tracer)
        journal = VerdictJournal(self.journal_path)
        sink = StoreAndForwardSink(journal)
        agents, senders, receivers = [], [], []
        for index, agent_id in enumerate(self.agent_ids):
            sender, receiver = reliable_link(
                f"uplink-{agent_id}",
                rng=np.random.default_rng(self.seed + 77 + index), **UPLINK)
            registry = ServingModelRegistry()
            registry.register("edge", model)
            path = self._spool_path(agent_id)
            spool = (EdgeSpool.open(path) if tracer is None else
                     tracer.call("edge.spool.open", EdgeSpool.open, path))
            agents.append(EdgeAgent(
                agent_id, registry=registry, spool=spool,
                uploader=EdgeUploader(spool, sender, agent_id=agent_id),
                trace=self.traces[index], instants=self.instants,
                privacy=PRIVACY_CYCLE[index % len(PRIVACY_CYCLE)]))
            senders.append(sender)
            receivers.append(EdgeUplinkReceiver(receiver, sink))
        peak = [max(agent.spool.depth for agent in agents)]
        if tracer is not None:
            wrap_model(tracer, model)
            tracer.wrap(journal, "append", "serving.journal.append")
            tracer.wrap(journal, "sync", "serving.journal.sync")
            for agent in agents:
                spool = agent.spool

                def note_depth(result, args, kwargs, spool=spool) -> None:
                    peak[0] = max(peak[0], spool.depth)

                tracer.wrap(agent, "step", "edge.agent.step")
                tracer.wrap(spool, "append", "edge.spool.append",
                            on_result=note_depth)
                tracer.wrap(spool, "sync", "edge.spool.sync")
                tracer.wrap(spool, "ack", "edge.spool.ack")
                tracer.wrap(spool, "pending", "edge.spool.pending")
                tracer.wrap(agent.uploader, "step", "edge.uploader.step")
            for receiver in receivers:
                tracer.wrap(receiver, "poll", "edge.uplink.poll")
        return agents, senders, receivers, sink, journal, peak

    def run(self, state, tracer: Tracer | None) -> PassResult:
        agents, senders, receivers, sink, journal, peak = state
        latencies: dict[tuple[str, int], float] = {}
        drive_end = float(self.instants[-1])
        tick = 0
        drained = False
        clock = LoopClock()
        while True:
            now = tick * EDGE_TICK
            if tracer is not None:
                tracer.instant = now
            for agent in agents:
                before = agent.verdicts
                began = time.perf_counter()
                agent.step(now)
                if agent.verdicts != before:
                    latencies[(agent.agent_id, tick)] = (time.perf_counter()
                                                         - began)
            for receiver in receivers:
                receiver.poll(now)
            clock.lap()
            if now >= drive_end:
                drained = all(agent.spool.depth == 0 for agent in agents)
                if drained or now > drive_end + EDGE_DRAIN_LIMIT:
                    break
            tick += 1

        ledger = Ledger()
        for agent in agents:
            produced = self.backlog + agent.verdicts + agent.clips
            ledger.requested.extend(
                (agent.agent_id, sequence)
                for sequence in range(1, produced + 1))
        for record in sink.delivered:
            ledger.delivered.append(record.record_id)
            ledger.stream.append(_stream_line(
                *record.record_id, record.kind, record.predicted))
        violations = []
        residue = sum(agent.spool.depth for agent in agents)
        if not drained or residue:
            violations.append(f"{residue} records still spooled after "
                              f"{EDGE_DRAIN_LIMIT:.0f} s of drain")
        for agent in agents:
            agent.close()
        journal.close()
        torn = sum(replay_spool(agent.spool.path).torn for agent in agents)
        if torn:
            violations.append(f"{torn} torn spool frames")
        replay = replay_journal(self.journal_path)
        if replay.torn:
            violations.append(f"{replay.torn} torn journal frames")
        if replay.ids != set(ledger.requested):
            violations.append("controller journal does not hold every "
                              "produced record exactly")
        sent = sum(s.stats.sent + s.stats.retransmissions for s in senders)
        acked = sum(s.stats.acked for s in senders)
        counters = {
            "journal_bytes": os.path.getsize(self.journal_path),
            "spool_peak_depth": peak[0],
            "uploader_resends": sum(agent.uploader.drops for agent in agents),
            "transmissions": sent,
            "acked": acked,
        }
        return PassResult(clock, ledger, latencies, violations, counters)


WORKLOADS = {cls.name: cls for cls in (FleetReplay, SupervisedMixed,
                                       EdgeFleet)}
