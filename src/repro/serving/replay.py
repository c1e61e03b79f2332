"""Concurrent scripted-drive replay through the inference server.

The serving subsystem's proof of life: synthesize N drivers' raw streams
(per-segment IMU physics + rendered cabin frames, the same generators the
collection framework uses), feed them into an :class:`InferenceServer`
instant by instant, and measure what the service actually delivers —
request throughput, wall-clock latency percentiles, batch sizes, and the
degraded-verdict coverage for drivers whose camera dies mid-replay.

Stream synthesis happens *before* the timed loop so the report measures
the serving path (session upkeep, scheduling, vectorized inference), not
the synthetic data generators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.darnet import DriveScript
from repro.exceptions import ConfigurationError
from repro.nn.compile.backends import DEFAULT_BACKEND
from repro.scenarios.compiler import (
    DriverTrace,
    compile_scenario,
    synthesize_trace,
)
from repro.scenarios.spec import ScenarioSpec
from repro.serving.registry import ServingModelRegistry
from repro.serving.server import InferenceServer, ServingVerdict

__all__ = ["DriverTrace", "ReplayReport", "replay_concurrent_drives",
           "synthesize_trace"]


@dataclass
class ReplayReport:
    """What the server delivered over one concurrent replay."""

    drivers: int
    duration: float
    grid_period: float
    workers: int
    instants: int
    requests: int
    verdicts: int
    degraded_verdicts: int
    rejected: int
    shed: int
    unservable: int
    wall_seconds: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    mean_batch_size: float
    max_batch_size: int
    killed_sessions: list[str] = field(default_factory=list)
    verdicts_per_session: dict[str, int] = field(default_factory=dict)
    degraded_per_session: dict[str, int] = field(default_factory=dict)
    #: Name of the scenario spec that shaped the fleet traffic.
    scenario: str = ""
    #: Frames the scenario's camera blackouts withheld from the server.
    masked_frames: int = 0
    #: Merged metrics snapshot + completed traces captured before the
    #: server was torn down (empty when observability was off).
    metrics: dict = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    #: Delivered verdicts in delivery order, reduced to the
    #: deterministic fields — the golden-replay fixture compares these.
    verdict_log: list[dict] = field(default_factory=list)

    def format_report(self) -> str:
        """Human-readable throughput/latency summary."""
        lines = [
            f"Serving replay — {self.drivers} concurrent drivers, "
            f"{self.duration:.0f} s at {1 / self.grid_period:.0f} Hz "
            f"({self.instants} grid instants, {self.workers} "
            f"worker{'s' if self.workers != 1 else ''})",
            f"  requests   {self.requests}   verdicts {self.verdicts}   "
            f"degraded {self.degraded_verdicts}   rejected {self.rejected}"
            f"   shed {self.shed}",
            f"  throughput {self.throughput_rps:8.1f} verdicts/s   "
            f"wall {self.wall_seconds:.2f} s",
            f"  latency    p50 {self.latency_p50_ms:6.2f} ms   "
            f"p95 {self.latency_p95_ms:6.2f} ms   "
            f"p99 {self.latency_p99_ms:6.2f} ms",
            f"  batching   mean {self.mean_batch_size:.1f}   "
            f"max {self.max_batch_size}",
        ]
        if self.scenario:
            masked = (f"   {self.masked_frames} frames withheld by "
                      "camera blackout" if self.masked_frames else "")
            lines.append(f"  scenario   {self.scenario}{masked}")
        if self.killed_sessions:
            killed = ", ".join(self.killed_sessions)
            lines.append(f"  camera killed mid-replay: {killed}")
            for sid in self.killed_sessions:
                lines.append(
                    f"    {sid}: {self.verdicts_per_session.get(sid, 0)} "
                    f"verdicts, {self.degraded_per_session.get(sid, 0)} "
                    f"degraded")
        return "\n".join(lines)


def _as_registry(model, backend: str = DEFAULT_BACKEND
                 ) -> ServingModelRegistry:
    if isinstance(model, ServingModelRegistry):
        return model
    registry = ServingModelRegistry(backend=backend)
    registry.register("base", model)
    return registry


def replay_concurrent_drives(model, *, drivers: int = 8,
                             duration: float = 20.0,
                             grid_period: float = 0.25,
                             max_batch: int | None = None,
                             max_delay: float = 0.025,
                             queue_capacity: int | None = None,
                             kill_camera: int = 0,
                             kill_at_fraction: float = 0.5,
                             frame_stale_after: float = 1.0,
                             seed: int = 0,
                             script: DriveScript | None = None,
                             scenario: ScenarioSpec | None = None,
                             workers: int = 0,
                             backend: str = DEFAULT_BACKEND,
                             observability: bool = True) -> ReplayReport:
    """Replay ``drivers`` concurrent scripted drives through a server.

    Args:
        model: a trained ensemble (anything with ``predict_degraded``) or
            a pre-built :class:`ServingModelRegistry`.
        drivers: concurrent driver sessions.
        duration: simulated drive length in seconds.
        grid_period: verdict cadence (paper: 0.25 s).
        max_batch: micro-batch size; defaults to ``drivers`` (one batch
            per grid instant); pass 1 for the unbatched baseline.
        max_delay: micro-batch flush deadline.
        queue_capacity: scheduler bound; defaults to ``4 * drivers``.
        kill_camera: how many drivers lose their camera stream mid-replay
            (their verdicts must degrade, not stop).
        kill_at_fraction: when the cameras die, as a fraction of duration.
        frame_stale_after: staleness horizon after which a silent camera
            stream is treated as missing.
        seed: randomness seed for the synthetic drives.
        script: drive script; a standard all-behaviours script by default.
        scenario: a declarative :class:`ScenarioSpec` describing the fleet
            traffic.  When given it is authoritative for ``drivers``,
            ``duration``, ``grid_period`` and ``seed`` (mutually exclusive
            with ``script``).  When omitted, the replay runs the default
            paper-sweep spec — bit-identical with the pre-DSL hardcoded
            script.
        workers: persistent worker processes for flushed batches
            (0 = in-process, bit-exact with the pre-executor replay;
            N >= 1 shards batches across N long-lived workers and
            delivers the same verdict sequence).
        backend: inference backend for dispatch when ``model`` is a bare
            model (a pre-built registry keeps its own backend config);
            ``reference`` runs the plain layer forward (the oracle).
        observability: stage histograms and request tracing; disable for
            the overhead benchmark's baseline measurement.
    """
    if scenario is not None and script is not None:
        raise ConfigurationError(
            "pass either scenario or script, not both")
    if scenario is None:
        if drivers < 1 or duration <= 0:
            raise ConfigurationError("need drivers >= 1 and duration > 0")
        scenario = (ScenarioSpec.from_script(
                        script, drivers=drivers, duration=duration,
                        grid_period=grid_period, seed=seed)
                    if script is not None
                    else ScenarioSpec.paper_sweep(
                        drivers=drivers, duration=duration,
                        grid_period=grid_period, seed=seed))
    # The spec is the single source of truth for the fleet shape.
    drivers = scenario.drivers
    duration = scenario.duration
    grid_period = scenario.grid_period
    seed = scenario.seed
    if not 0 <= kill_camera <= drivers:
        raise ConfigurationError("kill_camera must be in [0, drivers]")
    rng = np.random.default_rng(seed)
    compiled = compile_scenario(scenario)
    instants = compiled.instants
    traces = compiled.traces()

    registry = _as_registry(model, backend)
    registry.warm()
    server = InferenceServer(
        registry,
        max_batch=drivers if max_batch is None else max_batch,
        max_delay=max_delay,
        queue_capacity=(4 * drivers if queue_capacity is None
                        else queue_capacity),
        workers=workers,
        observability=observability)
    server.warm_executors()
    session_ids = [server.open_session(trace.driver_id)
                   for trace in traces]
    for sid in session_ids:
        server.session(sid).frame_stale_after = frame_stale_after
    killed = sorted(rng.choice(drivers, size=kill_camera, replace=False)) \
        if kill_camera else []
    killed_sessions = [session_ids[int(i)] for i in killed]
    kill_time = kill_at_fraction * duration

    submitted_at: dict[tuple[str, int], float] = {}
    wall_latencies: list[float] = []
    delivered: list[ServingVerdict] = []

    def absorb(verdicts: list[ServingVerdict]) -> None:
        done = time.perf_counter()
        for verdict in verdicts:
            key = (verdict.session_id, verdict.sequence)
            start = submitted_at.pop(key, None)
            if start is not None:
                wall_latencies.append(done - start)
        delivered.extend(verdicts)

    masked_frames = 0
    wall_start = time.perf_counter()
    for k, t in enumerate(instants):
        now = float(t)
        for index, (sid, trace) in enumerate(zip(session_ids, traces)):
            server.ingest_imu(sid, now, trace.imu[k])
            masked = (trace.frame_mask is not None
                      and not trace.frame_mask[k])
            if masked:
                masked_frames += 1
            if not masked and not (sid in killed_sessions
                                   and now >= kill_time):
                server.ingest_frame(sid, now, trace.frames[k])
            session = server.session(sid)
            before = session.counters.requests
            if server.request_verdict(sid, now):
                submitted_at[(sid, before + 1)] = time.perf_counter()
        absorb(server.step(now))
        absorb(server.step(now + max_delay))
    absorb(server.drain(duration))
    wall_seconds = time.perf_counter() - wall_start
    metrics = server.metrics_snapshot() if observability else {}
    traces = server.traces() if observability else []
    server.close()

    per_session: dict[str, int] = {sid: 0 for sid in session_ids}
    degraded_per: dict[str, int] = {sid: 0 for sid in session_ids}
    for verdict in delivered:
        per_session[verdict.session_id] += 1
        if verdict.degraded:
            degraded_per[verdict.session_id] += 1
    latencies_ms = 1e3 * np.asarray(wall_latencies or [0.0])
    stats = server.stats
    return ReplayReport(
        drivers=drivers,
        duration=float(duration),
        grid_period=float(grid_period),
        workers=int(workers),
        instants=len(instants),
        requests=stats.requests,
        verdicts=stats.verdicts,
        degraded_verdicts=stats.degraded_verdicts,
        rejected=stats.rejected,
        shed=server.scheduler.stats.shed,
        unservable=stats.unservable,
        wall_seconds=wall_seconds,
        throughput_rps=(stats.verdicts / wall_seconds
                        if wall_seconds > 0 else 0.0),
        latency_p50_ms=float(np.percentile(latencies_ms, 50)),
        latency_p95_ms=float(np.percentile(latencies_ms, 95)),
        latency_p99_ms=float(np.percentile(latencies_ms, 99)),
        mean_batch_size=server.scheduler.stats.mean_batch_size,
        max_batch_size=server.scheduler.stats.max_batch_size,
        killed_sessions=killed_sessions,
        verdicts_per_session=per_session,
        degraded_per_session=degraded_per,
        scenario=scenario.name,
        masked_frames=masked_frames,
        metrics=metrics,
        traces=traces,
        verdict_log=[
            {"session_id": verdict.session_id,
             "sequence": verdict.sequence,
             "predicted": verdict.predicted,
             "degraded": verdict.degraded}
            for verdict in delivered
        ],
    )
