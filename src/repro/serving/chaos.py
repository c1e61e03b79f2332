"""Serving-tier chaos: scripted shard/sink/disk faults with a loss audit.

The streaming chaos drive (:mod:`repro.streaming.faults`) proves the
collection stack degrades instead of dying; this module proves the same
for the *serving* stack.  The one
:class:`~repro.streaming.faults.ChaosHarness` drives a
:class:`~.supervisor.ShardSupervisor` through a scripted
:class:`~repro.streaming.faults.FaultSchedule` with a lever per serving
fault kind and target:

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
frames (the ledger audit shared with the edge drive,
:func:`~repro.serving.journal.audit_ledger`), bounded recovery time.
Violations are collected (not raised) so the CLI can print the audit and
exit non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.darnet import DriveScript
from repro.exceptions import ConfigurationError
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.faults import scenario_fault_schedule
from repro.scenarios.spec import ScenarioSpec, resolve_fleet
from repro.serving.journal import audit_ledger
from repro.serving.supervisor import SHARD_UP, ShardHandle, ShardSupervisor
from repro.streaming.faults import (
    ChaosHarness,
    FaultEvent,
    FaultSchedule,
    Lever,
    switch,
)


def _shard_levers(handle: ShardHandle) -> list[Lever]:
    """A kill trigger and a hang switch, both held to a shard that is up
    and not crashed: a shard restarted inside a live kill event is killed
    again (the crash loop the restart backoff exists for), and a hung
    shard the watchdog declares dead switches its hang off once."""
    def up() -> bool:
        return handle.state == SHARD_UP and not handle.crashed

    def kill(event: FaultEvent) -> None:
        handle.crashed = True

    return [Lever("shard_kill", handle.name, kill, ready=up),
            switch("executor_hang", handle.name,
                   lambda on: setattr(handle, "hung", on), ready=up)]


def _levers(supervisor: ShardSupervisor) -> list[Lever]:
    """Every shard's levers, then the fleet-wide (``"*"``) sink blackhole
    and journal disk-full switches."""
    sink = supervisor.sink
    return [*(lever for name in supervisor.shard_names
              for lever in _shard_levers(supervisor.shard(name))),
            switch("sink_blackhole", "*",
                   lambda on: setattr(sink, "blackholed", on)),
            switch("journal_disk_full", "*",
                   supervisor.journal.simulate_disk_full)]


def standard_serving_schedule(duration: float = 20.0,
                              shards: int = 3) -> FaultSchedule:
    """The canonical serving-resilience scenario for one chaos run:
    a shard killed mid-drive, a second shard hanging later, the
    downstream sink blackholed across the failover, and the journal
    disk filling up inside the blackhole window — all four serving
    fault kinds, overlapping on purpose.  The hang hits ``shard-2``,
    or ``shard-0`` in a 2-shard fleet: a shard every fleet has, other
    than the killed one."""
    return FaultSchedule([
        FaultEvent(0.30 * duration, 0.34 * duration, "shard_kill",
                   "shard-1"),
        FaultEvent(0.55 * duration, 0.65 * duration, "executor_hang",
                   f"shard-{2 % shards}"),
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
    scenario = resolve_fleet(scenario, script, drivers=drivers,
                             duration=duration, grid_period=grid_period,
                             seed=seed)
    if shards < 2:
        raise ConfigurationError(
            "serving chaos needs >= 2 shards (somewhere to migrate to)")
    drivers, duration = scenario.drivers, scenario.duration
    grid_period, seed = scenario.grid_period, scenario.seed
    if schedule is None:
        schedule = standard_serving_schedule(duration, shards)
    silent_after = 4.0 * grid_period
    backoff_base = 4.0 * grid_period
    backoff_cap = 16.0 * grid_period
    if recovery_bound is None:
        recovery_bound = silent_after + backoff_cap + grid_period
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
    schedule = scenario_fault_schedule(scenario, session_ids,
                                       extra=schedule.events)
    harness = ChaosHarness(schedule, _levers(supervisor))
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

        delivered_ids = set(supervisor.delivered_ids)
        deferred_ids = set(supervisor.deferred_ids)
        supervisor.journal.sync()
        audit = audit_ledger(requested, delivered_ids | deferred_ids,
                             supervisor.sink, supervisor.journal.path)
        stats = supervisor.stats
        kinds = {event.kind for event in schedule.events}

        violations = [*audit.violations, *harness.unengaged()]
        if delivered_ids & deferred_ids:
            both = delivered_ids & deferred_ids
            violations.append(
                f"{len(both)} windows both delivered and deferred")
        if supervisor.journal.overflow_depth:
            violations.append(
                f"{supervisor.journal.overflow_depth} journal records "
                "still stuck in the memory overflow")
        if harness.count("shard_kill") and stats["restarts"] == 0:
            violations.append("a shard died but was never restarted")
        if "camera_blackout" in kinds and masked_frames == 0:
            violations.append(
                "schedule contains camera_blackout events but no frame "
                "was withheld (scenario fault did not engage)")
        if "camera_covered" in kinds and covered_frames == 0:
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
            requested=len(set(requested)),
            delivered=len(delivered_ids),
            deferred=len(deferred_ids),
            lost=len(audit.lost),
            downstream_delivered=len(supervisor.sink.delivered),
            downstream_duplicates=audit.duplicates,
            shard_kills=harness.count("shard_kill"),
            shard_hangs=harness.count("executor_hang"),
            shard_deaths=stats["deaths"],
            restarts=stats["restarts"],
            migrations=stats["migrations"],
            retries=stats["retries"],
            recovery_times=list(supervisor.recovery_times),
            recovery_bound=float(recovery_bound),
            journal_records=len(audit.journal.records),
            journal_duplicates=audit.journal.duplicates,
            journal_torn=audit.torn,
            journal_bytes=audit.journal.bytes_read,
            journal_overflowed=supervisor.journal.overflowed,
            unjournaled=len(audit.unjournaled),
            violations=violations,
            harness_log=list(harness.log),
            metrics=supervisor.metrics_snapshot(),
            scenario=scenario.name,
            masked_frames=masked_frames,
            covered_frames=covered_frames,
        )
    finally:
        supervisor.close()
