"""Serving-tier chaos: scripted shard/sink/disk faults with a loss audit.

The streaming chaos harness (:mod:`repro.streaming.faults`) proves the
collection stack degrades instead of dying; this module proves the same
for the *serving* stack.  It drives a :class:`~.supervisor.ShardSupervisor`
through a scripted :class:`~repro.streaming.faults.FaultSchedule` carrying
the serving fault kinds:

* ``shard_kill`` — the target shard crashes (calls refuse, heartbeats
  stop); the watchdog must notice, migrate its sessions and restart it;
* ``executor_hang`` — the target shard accepts nothing and answers
  nothing (calls time out); indistinguishable from a crash from outside,
  and handled the same way;
* ``sink_blackhole`` — the downstream verdict consumer is unreachable;
  store-and-forward must buffer and drain on reconnect without
  double-delivering;
* ``journal_disk_full`` — the journal's disk refuses writes; appends
  must degrade to the in-memory overflow and drain back afterwards.

:func:`run_serving_chaos` replays scripted drives through the supervised
fleet under such a schedule and audits the one invariant everything else
serves: **every admitted (driver, window) id is accounted for** — it
reaches the downstream sink exactly once as a verdict, or it is
journaled as deferred.  Zero silent loss, no duplicates, no torn journal
frames, bounded recovery time.  Violations are collected (not raised) so
the CLI can print the audit and exit non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.darnet import DriveScript
from repro.exceptions import ConfigurationError
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.faults import scenario_fault_events
from repro.scenarios.spec import ScenarioSpec
from repro.serving.supervisor import SHARD_UP, ShardSupervisor
from repro.streaming.faults import FaultEvent, FaultSchedule


class ServingChaosHarness:
    """Reconciles a supervised shard fleet with a fault schedule.

    ``shard_kill`` is edge-triggered — a shard that restarts while the
    event is still live is killed again, which is exactly the crash-loop
    the restart backoff exists for.  ``executor_hang``,
    ``sink_blackhole`` and ``journal_disk_full`` are level-triggered:
    asserted while the event is active, cleared when it ends.
    """

    def __init__(self, schedule: FaultSchedule,
                 supervisor: ShardSupervisor) -> None:
        self.schedule = schedule
        self.supervisor = supervisor
        self.log: list[tuple[float, str, str, str]] = []
        self.kills = 0
        self.hangs = 0

    def apply(self, now: float) -> None:
        """Reconcile fleet state with the schedule at virtual ``now``."""
        for name in self.supervisor.shard_names:
            handle = self.supervisor.shard(name)
            kill = self.schedule.active_for("shard_kill", name, now)
            if kill is not None and handle.state == SHARD_UP \
                    and not handle.crashed:
                handle.crashed = True
                self.kills += 1
                self.log.append((now, "shard_kill", name, "on"))
            hang = self.schedule.active_for("executor_hang", name, now)
            should_hang = hang is not None and handle.state == SHARD_UP \
                and not handle.crashed
            if should_hang and not handle.hung:
                self.hangs += 1
                self.log.append((now, "executor_hang", name, "on"))
            elif handle.hung and not should_hang:
                self.log.append((now, "executor_hang", name, "off"))
            if handle.state == SHARD_UP:
                handle.hung = should_hang
        sink = self.supervisor.sink
        blackhole = self.schedule.active_for("sink_blackhole", "*", now)
        if (blackhole is not None) != sink.blackholed:
            sink.blackholed = blackhole is not None
            self.log.append((now, "sink_blackhole", "*",
                             "on" if sink.blackholed else "off"))
        journal = self.supervisor.journal
        disk_full = self.schedule.active_for("journal_disk_full", "*", now)
        if (disk_full is not None) != journal.disk_full:
            journal.simulate_disk_full(disk_full is not None)
            self.log.append((now, "journal_disk_full", "*",
                             "on" if journal.disk_full else "off"))


def standard_serving_schedule(duration: float = 20.0) -> FaultSchedule:
    """The canonical serving-resilience scenario for one chaos run:
    a shard killed mid-drive, a second shard hanging later, the
    downstream sink blackholed across the failover, and the journal
    disk filling up inside the blackhole window — all four serving
    fault kinds, overlapping on purpose."""
    return FaultSchedule([
        FaultEvent(0.30 * duration, 0.34 * duration, "shard_kill",
                   "shard-1"),
        FaultEvent(0.55 * duration, 0.65 * duration, "executor_hang",
                   "shard-2"),
        FaultEvent(0.40 * duration, 0.55 * duration, "sink_blackhole", "*"),
        FaultEvent(0.45 * duration, 0.55 * duration, "journal_disk_full",
                   "*"),
    ])


@dataclass
class ServingChaosReport:
    """The loss audit :func:`run_serving_chaos` produces."""

    shards: int
    drivers: int
    duration: float
    seed: int
    requested: int
    delivered: int
    deferred: int
    lost: int
    downstream_delivered: int
    downstream_duplicates: int
    shard_kills: int
    shard_hangs: int
    shard_deaths: int
    restarts: int
    migrations: int
    retries: int
    recovery_times: list[float]
    recovery_bound: float
    journal_records: int
    journal_duplicates: int
    journal_torn: int
    journal_bytes: int
    journal_overflowed: int
    unjournaled: int
    violations: list[str] = field(default_factory=list)
    harness_log: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Scenario-DSL provenance: spec name, frames withheld by scheduled
    #: camera blackouts, and frames served as occluded covered-lens views.
    scenario: str = ""
    masked_frames: int = 0
    covered_frames: int = 0

    @property
    def recovery_max(self) -> float:
        return max(self.recovery_times) if self.recovery_times else 0.0

    def format_report(self) -> str:
        """Human-readable audit summary for the CLI."""
        recoveries = (", ".join(f"{r:.2f}s" for r in self.recovery_times)
                      or "none")
        lines = [
            f"Serving chaos — {self.drivers} drivers on {self.shards} "
            f"shards, {self.duration:.0f} s drive (seed {self.seed})",
            f"  faults     kills {self.shard_kills}   hangs "
            f"{self.shard_hangs}   deaths detected {self.shard_deaths}",
            f"  recovery   restarts {self.restarts}   migrations "
            f"{self.migrations}   retries {self.retries}   "
            f"times [{recoveries}] (bound {self.recovery_bound:.2f}s)",
            f"  ledger     requested {self.requested}   delivered "
            f"{self.delivered}   deferred {self.deferred}   "
            f"lost {self.lost}",
            f"  downstream delivered {self.downstream_delivered}   "
            f"duplicates {self.downstream_duplicates}",
            f"  journal    records {self.journal_records}   duplicates "
            f"{self.journal_duplicates}   torn {self.journal_torn}   "
            f"overflowed {self.journal_overflowed}   "
            f"{self.journal_bytes} bytes",
        ]
        if self.scenario:
            lines.append(
                f"  scenario   {self.scenario}: {self.masked_frames} "
                f"frames withheld (blackout), {self.covered_frames} "
                "occluded frames served (covered)")
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {violation}"
                         for violation in self.violations)
        else:
            lines.append("  invariants: all hold (zero loss, exactly-once "
                         "delivery, clean journal, bounded recovery)")
        return "\n".join(lines)


def run_serving_chaos(model, *, shards: int = 3, drivers: int = 6,
                      duration: float = 20.0, grid_period: float = 0.25,
                      seed: int = 0,
                      schedule: FaultSchedule | None = None,
                      recovery_bound: float | None = None,
                      script: DriveScript | None = None,
                      scenario: ScenarioSpec | None = None
                      ) -> ServingChaosReport:
    """Drive a supervised shard fleet through scripted serving chaos.

    Replays ``drivers`` scripted drives (the same synthetic traces the
    serving replay uses) through a :class:`ShardSupervisor` while
    ``schedule`` kills shards, hangs executors, blackholes the sink and
    fills the journal disk — then settles until every restart and
    retransmission has landed and audits the zero-loss ledger.

    Args:
        model: trained ensemble (anything with ``predict_degraded``) or
            a pre-built model registry, shared by every shard.
        shards / drivers / duration / grid_period / seed: fleet size and
            drive shape; the seed fixes the synthetic traces, so a run
            is reproducible end to end (the schedule is already
            deterministic).
        schedule: fault script; :func:`standard_serving_schedule` by
            default.
        recovery_bound: maximum acceptable shard death-to-restart time;
            defaults to watchdog latency + maximum restart backoff +
            one grid step.
        script: drive behaviour script; standard all-behaviours when
            omitted.
        scenario: a declarative :class:`ScenarioSpec` for the fleet
            traffic.  Authoritative for ``drivers`` / ``duration`` /
            ``grid_period`` / ``seed``; its environment-track camera
            faults join the fault schedule as scenario-native
            ``camera_covered`` / ``camera_blackout`` events — blackouts
            withhold frame ingestion (IMU-only degradation under the
            zero-loss audit) and the audit demands they engage.
    """
    if scenario is not None:
        if script is not None:
            raise ConfigurationError(
                "pass either scenario or script, not both")
        drivers = scenario.drivers
        duration = scenario.duration
        grid_period = scenario.grid_period
        seed = scenario.seed
    if shards < 2:
        raise ConfigurationError(
            "serving chaos needs >= 2 shards (somewhere to migrate to)")
    if drivers < 1 or duration <= 0 or grid_period <= 0:
        raise ConfigurationError(
            "need drivers >= 1, duration > 0, grid_period > 0")
    if schedule is None:
        schedule = standard_serving_schedule(duration)
    silent_after = 4.0 * grid_period
    backoff_base = 4.0 * grid_period
    backoff_cap = 16.0 * grid_period
    if recovery_bound is None:
        recovery_bound = silent_after + backoff_cap + grid_period
    if scenario is None:
        scenario = (ScenarioSpec.from_script(
                        script, drivers=drivers, duration=duration,
                        grid_period=grid_period, seed=seed)
                    if script is not None
                    else ScenarioSpec.paper_sweep(
                        drivers=drivers, duration=duration,
                        grid_period=grid_period, seed=seed))
    compiled = compile_scenario(scenario)
    instants = compiled.instants
    traces = compiled.traces()

    supervisor = ShardSupervisor(
        model, shards=shards,
        server_options={"max_batch": drivers, "max_delay": grid_period / 10,
                        "queue_capacity": 8 * drivers},
        degraded_after=2.0 * grid_period, silent_after=silent_after,
        checkpoint_interval=2.0 * grid_period,
        backoff_base=backoff_base, backoff_cap=backoff_cap,
        request_deadline=8.0 * grid_period,
        heartbeat_interval=grid_period)
    session_ids = [supervisor.open_session(trace.driver_id, now=0.0)
                   for trace in traces]
    scenario_events = scenario_fault_events(scenario, session_ids)
    if scenario_events:
        schedule = FaultSchedule([*schedule.events, *scenario_events])
    harness = ServingChaosHarness(schedule, supervisor)
    covered_frames = 0
    for trace in traces:
        covered = np.zeros(len(instants), dtype=bool)
        for fault in scenario.environment.camera_faults:
            if fault.kind == "covered" and fault.hits(trace.driver_id):
                covered |= (instants >= fault.start) & (instants < fault.end)
        covered_frames += int(covered.sum())

    requested: list[tuple[str, int]] = []
    masked_frames = 0
    try:
        for index, instant in enumerate(instants):
            now = float(instant)
            harness.apply(now)
            for sid, trace in zip(session_ids, traces):
                supervisor.ingest_imu(sid, now, trace.imu[index])
                if trace.frame_mask is None or trace.frame_mask[index]:
                    supervisor.ingest_frame(sid, now, trace.frames[index])
                else:
                    masked_frames += 1
                requested.append(
                    (sid, supervisor.request_verdict(sid, now)))
            supervisor.step(now)
        # Settle: no new requests, but keep supervising until the last
        # deadline has expired, every due restart has happened and the
        # sink backlog has drained.
        settle_steps = int(np.ceil(
            (silent_after + backoff_cap + 8.0 * grid_period)
            / grid_period)) + 4
        now = float(duration)
        for _ in range(settle_steps):
            harness.apply(now)
            supervisor.step(now)
            now += grid_period
        supervisor.drain(now)

        requested_ids = set(requested)
        delivered_ids = set(supervisor.delivered_ids)
        deferred_ids = set(supervisor.deferred_ids)
        lost = requested_ids - delivered_ids - deferred_ids
        replay = supervisor.journal.replay()
        journal_ids = replay.ids
        unjournaled = (delivered_ids | deferred_ids) - journal_ids
        downstream = supervisor.sink.delivered
        downstream_dupes = len(downstream) - len(
            {record.record_id for record in downstream})
        stats = supervisor.stats

        violations: list[str] = []
        if lost:
            violations.append(
                f"{len(lost)} admitted windows neither delivered nor "
                f"deferred (e.g. {sorted(lost)[:3]})")
        if delivered_ids & deferred_ids:
            both = delivered_ids & deferred_ids
            violations.append(
                f"{len(both)} windows both delivered and deferred")
        if unjournaled:
            violations.append(
                f"{len(unjournaled)} resolved windows missing from the "
                "journal replay")
        if replay.torn:
            violations.append(
                f"{replay.torn} torn journal frames after a clean close")
        if downstream_dupes:
            violations.append(
                f"{downstream_dupes} duplicate downstream deliveries")
        if supervisor.journal.overflow_depth:
            violations.append(
                f"{supervisor.journal.overflow_depth} journal records "
                "still stuck in the memory overflow")
        has_kill = any(e.kind == "shard_kill" for e in schedule.events)
        if has_kill and harness.kills == 0:
            violations.append(
                "schedule contains shard_kill events but no shard was "
                "killed (chaos did not engage)")
        if has_kill and stats["restarts"] == 0:
            violations.append("a shard died but was never restarted")
        if any(e.kind == "camera_blackout" for e in schedule.events) \
                and masked_frames == 0:
            violations.append(
                "schedule contains camera_blackout events but no frame "
                "was withheld (scenario fault did not engage)")
        if any(e.kind == "camera_covered" for e in schedule.events) \
                and covered_frames == 0:
            violations.append(
                "schedule contains camera_covered events but no occluded "
                "frame was served (scenario fault did not engage)")
        for recovery in supervisor.recovery_times:
            if recovery > recovery_bound:
                violations.append(
                    f"shard recovery took {recovery:.2f}s "
                    f"(bound {recovery_bound:.2f}s)")
        if supervisor.pending_windows:
            violations.append(
                f"{supervisor.pending_windows} windows still pending "
                "after drain")

        return ServingChaosReport(
            shards=shards, drivers=drivers, duration=float(duration),
            seed=seed,
            requested=len(requested_ids),
            delivered=len(delivered_ids),
            deferred=len(deferred_ids),
            lost=len(lost),
            downstream_delivered=len(downstream),
            downstream_duplicates=downstream_dupes,
            shard_kills=harness.kills,
            shard_hangs=harness.hangs,
            shard_deaths=stats["deaths"],
            restarts=stats["restarts"],
            migrations=stats["migrations"],
            retries=stats["retries"],
            recovery_times=list(supervisor.recovery_times),
            recovery_bound=float(recovery_bound),
            journal_records=len(replay.records),
            journal_duplicates=replay.duplicates,
            journal_torn=replay.torn,
            journal_bytes=replay.bytes_read,
            journal_overflowed=supervisor.journal.overflowed,
            unjournaled=len(unjournaled),
            violations=violations,
            harness_log=list(harness.log),
            metrics=supervisor.metrics_snapshot(),
            scenario=scenario.name,
            masked_frames=masked_frames,
            covered_frames=covered_frames,
        )
    finally:
        supervisor.close()
