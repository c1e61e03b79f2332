"""Shard supervisor: N inference-server shards that survive dying.

One :class:`~.server.InferenceServer` owning every driver session is a
single point of failure: a crashed process takes every ring buffer and
queued request with it.  The supervisor grows the serving tier into a
supervised fleet of *shards* — each an independent ``InferenceServer``
owning a consistent-hash slice of driver sessions — and makes the fleet
survive the faults the chaos harness can throw at it:

* **Routing.** A consistent-hash ring (virtual nodes, CRC32) maps each
  session id to its home shard; when a shard leaves the ring only its
  slice of sessions moves, the rest stay put.
* **Watchdog.** Shards are supervised through exactly the heartbeat
  machinery agents use (:mod:`repro.streaming.health`): each supervisor
  step collects a heartbeat from every shard, and a shard whose
  heartbeats stop — crash and hang both look like silence from outside
  the process boundary — walks HEALTHY → DEGRADED → SILENT and is
  declared dead by the registry, not by peeking at its internals.
* **Migration.** A dead shard's sessions are restored from their last
  checkpoint (:mod:`repro.serving.checkpoint`) onto surviving shards —
  bit-exact IMU ring state, preserved request sequence — and its
  in-flight requests get one head-of-line retry on the adoptee; what
  cannot be retried is journaled-and-deferred, never silently dropped.
* **Restart.** Dead shards restart on exponential backoff (a
  crash-looping shard must not burn the fleet's CPU re-forking); a
  restarted shard rejoins the ring and its home sessions migrate back
  live (no checkpoint staleness — the source is a healthy survivor).
* **Degradation ladder.** ``full → IMU-only → journal-and-defer``: a
  request that cannot run full-fidelity on its home shard retries on a
  survivor where the restored (possibly frame-stale) session naturally
  degrades to IMU-only; when no shard can answer before the deadline
  the window is journaled as *deferred* — durable, accounted, replayable.

The process boundary is simulated the way the rest of this codebase
simulates infrastructure: a :class:`ShardHandle` refuses calls
(:class:`~repro.exceptions.ShardUnavailableError`) once the chaos
harness crashes it, exactly like a connection refused — the supervisor
never reads a dead shard's memory.
"""

from __future__ import annotations

import bisect
import os
import tempfile
import zlib
from dataclasses import dataclass, field

from repro.exceptions import (
    ConfigurationError,
    ServingError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving.checkpoint import CheckpointStore
from repro.serving.journal import (
    KIND_DEFERRED,
    StoreAndForwardSink,
    VerdictJournal,
    VerdictRecord,
)
from repro.serving.registry import as_registry
from repro.serving.server import InferenceServer, ServingVerdict
from repro.serving.sessions import DriverSession
from repro.streaming.health import HealthRegistry, HealthState, Heartbeat


def _hash32(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class HashRing:
    """Consistent-hash ring over shard names with virtual nodes.

    ``replicas`` virtual points per shard smooth the slice sizes; a
    session id routes to the first point clockwise from its own hash.
    Removing a shard moves only the sessions in its slice — the
    migration-minimizing property the rebalance path relies on.
    """

    def __init__(self, *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def add(self, name: str) -> None:
        if name in self._nodes:
            return
        self._nodes.add(name)
        for index in range(self.replicas):
            point = (_hash32(f"{name}#{index}"), name)
            bisect.insort(self._points, point)

    def remove(self, name: str) -> None:
        if name not in self._nodes:
            return
        self._nodes.discard(name)
        self._points = [p for p in self._points if p[1] != name]

    def route(self, key: str, *, exclude: set[str] | None = None) -> str | None:
        """The shard owning ``key`` (skipping ``exclude``), or ``None``."""
        exclude = exclude or set()
        candidates = [p for p in self._points if p[1] not in exclude]
        if not candidates:
            return None
        index = bisect.bisect_left(candidates, (_hash32(key), ""))
        return candidates[index % len(candidates)][1]


#: Shard lifecycle states.
SHARD_UP = "up"
SHARD_DOWN = "down"


@dataclass
class ShardHandle:
    """The supervisor's view of one shard across a process boundary.

    ``crashed`` / ``hung`` are the chaos harness's levers: a crashed
    shard's calls raise :class:`ShardUnavailableError` (connection
    refused), a hung shard's raise :class:`ShardTimeoutError` (the
    caller's watchdog timer firing).  The supervisor only learns about
    either through failed calls and missed heartbeats.
    """

    name: str
    server: InferenceServer | None = None
    state: str = SHARD_UP
    crashed: bool = False
    hung: bool = False
    restarts: int = 0
    backoff: float = 0.0
    restart_at: float | None = None
    died_at: float | None = None
    up_since: float = 0.0
    heartbeat_seq: int = 0
    last_cause: str = ""
    sessions: set[str] = field(default_factory=set)

    def _check(self) -> None:
        if self.state != SHARD_UP or self.server is None or self.crashed:
            raise ShardUnavailableError(f"shard {self.name!r} is down")
        if self.hung:
            raise ShardTimeoutError(f"shard {self.name!r} timed out")

    # -- supervised calls (every one may raise like a dead remote) --------
    def heartbeat(self, now: float) -> Heartbeat:
        self._check()
        self.heartbeat_seq += 1
        return Heartbeat(agent_id=self.name, timestamp=now,
                         sequence=self.heartbeat_seq,
                         readings_taken=int(self.server.stats.verdicts))

    def open(self, driver_id: int, *, privacy: str | None,
             session_id: str, base_priority: float) -> None:
        self._check()
        self.server.open_session(driver_id, privacy=privacy,
                                 session_id=session_id,
                                 base_priority=base_priority)
        self.sessions.add(session_id)

    def adopt(self, session: DriverSession) -> None:
        self._check()
        self.server.adopt_session(session)
        self.sessions.add(session.session_id)

    def evict(self, session_id: str) -> DriverSession:
        self._check()
        session = self.server.close_session(session_id)
        self.sessions.discard(session_id)
        return session

    def ingest_imu(self, session_id: str, now: float, values) -> None:
        self._check()
        self.server.ingest_imu(session_id, now, values)

    def ingest_frame(self, session_id: str, now: float, image) -> None:
        self._check()
        self.server.ingest_frame(session_id, now, image)

    def request(self, session_id: str, now: float,
                expires_at: float) -> int | None:
        """Queue a verdict request; returns the shard sequence or None."""
        self._check()
        before = self.server.session(session_id).counters.requests
        if self.server.request_verdict(session_id, now,
                                       expires_at=expires_at):
            return before + 1
        return None

    def step(self, now: float, *, force: bool = False) -> list[ServingVerdict]:
        self._check()
        return self.server.step(now, force=force)

    def export_session(self, session_id: str) -> DriverSession:
        self._check()
        return self.server.session(session_id)


@dataclass
class PendingWindow:
    """Ledger entry for one admitted (driver, window) awaiting a verdict."""

    session_id: str
    window_id: int
    requested_at: float
    expires_at: float
    shard: str
    shard_sequence: int
    retried: bool = False


@dataclass
class MigrationEvent:
    """One session move, for the chaos report and tests."""

    at: float
    session_id: str
    source: str
    target: str
    via: str  # "checkpoint" (source dead) or "live" (rebalance)


class ShardSupervisor:
    """Runs, watches, restarts and migrates a fleet of serving shards.

    Args:
        model: trained ensemble (anything with ``predict_degraded``) or
            a :class:`ServingModelRegistry` shared by every shard.
        shards: shard count (each its own :class:`InferenceServer`).
        server_options: keyword options forwarded to each shard's
            ``InferenceServer`` (max_batch, max_delay, ...).
        degraded_after / silent_after: heartbeat-silence thresholds (in
            simulation seconds) before a shard is DEGRADED / declared
            dead, straight through :class:`HealthRegistry`.
        checkpoint_interval: seconds between per-session snapshots; the
            failover staleness bound.
        checkpoint_dir: optional directory for persisted checkpoints.
        backoff_base / backoff_factor / backoff_cap: exponential restart
            backoff for dead shards.
        request_deadline: per-request deadline (seconds after submit)
            before the degradation ladder journals-and-defers a window.
        journal: the durable verdict journal; when omitted, a temp-file
            journal is created and :meth:`close` deletes it once it
            closes cleanly.
        downstream: verdict consumer for the store-and-forward sink.
        heartbeat_interval: how often shards are polled for liveness.
    """

    def __init__(self, model, *, shards: int = 2,
                 server_options: dict | None = None,
                 degraded_after: float = 0.5, silent_after: float = 1.5,
                 checkpoint_interval: float = 1.0,
                 checkpoint_dir: str | None = None,
                 backoff_base: float = 0.5, backoff_factor: float = 2.0,
                 backoff_cap: float = 8.0,
                 request_deadline: float = 2.0,
                 journal: VerdictJournal | None = None,
                 downstream=None,
                 heartbeat_interval: float = 0.25) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if backoff_base <= 0 or backoff_factor < 1 or backoff_cap <= 0:
            raise ConfigurationError(
                "need backoff_base > 0, backoff_factor >= 1, "
                "backoff_cap > 0")
        if request_deadline <= 0:
            raise ConfigurationError("request_deadline must be positive")
        self.registry = as_registry(model)
        self.server_options = dict(server_options or {})
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap = float(backoff_cap)
        self.request_deadline = float(request_deadline)
        self.heartbeat_interval = float(heartbeat_interval)
        self.metrics = MetricsRegistry()
        self._temp_journal = journal is None
        if journal is None:
            handle = tempfile.NamedTemporaryFile(
                prefix="verdict-journal-", suffix=".wal", delete=False)
            handle.close()
            journal = VerdictJournal(handle.name, registry=self.metrics)
        self.journal = journal
        self.sink = StoreAndForwardSink(journal, downstream,
                                        registry=self.metrics)
        self.health = HealthRegistry(degraded_after=degraded_after,
                                     silent_after=silent_after,
                                     detector_factory=None)
        self.checkpoints = CheckpointStore(interval=checkpoint_interval,
                                           directory=checkpoint_dir)
        self.ring = HashRing()
        self._shards: dict[str, ShardHandle] = {}
        self._assign: dict[str, str | None] = {}
        self._meta: dict[str, dict] = {}
        self._pending: dict[tuple[str, int], PendingWindow] = {}
        self._by_shard_seq: dict[tuple[str, str, int], tuple[str, int]] = {}
        self._next_window: dict[str, int] = {}
        self._next_heartbeat = 0.0
        self.delivered_ids: set[tuple[str, int]] = set()
        self.deferred_ids: set[tuple[str, int]] = set()
        self.migrations: list[MigrationEvent] = []
        self.recovery_times: list[float] = []
        self._obs_restarts = self.metrics.counter(
            "serving_supervisor_restarts_total",
            "Dead shards restarted by the supervisor")
        self._obs_deaths = self.metrics.counter(
            "serving_supervisor_shard_deaths_total",
            "Shards declared dead by the heartbeat watchdog")
        self._obs_migrations = self.metrics.counter(
            "serving_supervisor_migrations_total",
            "Driver sessions migrated between shards")
        self._obs_retries = self.metrics.counter(
            "serving_supervisor_retries_total",
            "In-flight requests retried on a surviving shard")
        self._obs_deferred = self.metrics.counter(
            "serving_supervisor_deferred_total",
            "Windows journaled-and-deferred by the degradation ladder")
        self._obs_up = self.metrics.gauge(
            "serving_supervisor_shards_up", "Shards currently serving")
        self._obs_recovery = self.metrics.histogram(
            "serving_supervisor_recovery_seconds",
            "Shard death to back-in-ring, in simulation time")
        for index in range(int(shards)):
            name = f"shard-{index}"
            handle = ShardHandle(name=name,
                                 server=self._build_server())
            self._shards[name] = handle
            self.ring.add(name)
            self.health.register(name, 0.0)
        self._obs_up.set(len(self._shards))

    def _build_server(self) -> InferenceServer:
        server = InferenceServer(self.registry, **self.server_options)
        server.on_expire = self._on_request_expired
        return server

    # -- introspection ---------------------------------------------------
    @property
    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, name: str) -> ShardHandle:
        if name not in self._shards:
            raise ServingError(f"no shard named {name!r}")
        return self._shards[name]

    @property
    def shards_up(self) -> list[str]:
        return sorted(name for name, handle in self._shards.items()
                      if handle.state == SHARD_UP)

    def assignment(self, session_id: str) -> str | None:
        """The shard currently owning a session (None while parked)."""
        if session_id not in self._assign:
            raise ServingError(f"no open session {session_id!r}")
        return self._assign[session_id]

    @property
    def sessions(self) -> list[str]:
        return sorted(self._assign)

    @property
    def pending_windows(self) -> int:
        return len(self._pending)

    # -- session lifecycle -----------------------------------------------
    def open_session(self, driver_id: int, *, now: float = 0.0,
                     privacy: str | None = None,
                     session_id: str | None = None,
                     base_priority: float = 0.0) -> str:
        """Open a session on its hash-home shard (or the next survivor)."""
        session_id = session_id or f"drv-{driver_id}"
        if session_id in self._assign:
            raise ServingError(f"session {session_id!r} already open")
        target = self.ring.route(session_id)
        if target is None:
            raise ShardUnavailableError("no shard is up")
        self._shards[target].open(driver_id, privacy=privacy,
                                  session_id=session_id,
                                  base_priority=base_priority)
        self._assign[session_id] = target
        self._meta[session_id] = {"driver_id": int(driver_id),
                                  "privacy": privacy,
                                  "base_priority": float(base_priority)}
        self._next_window[session_id] = 0
        # Checkpoint at open so a crash before the first interval still
        # has something to restore (an empty ring beats a lost session).
        self.checkpoints.take(self._shards[target].export_session(session_id),
                              now)
        return session_id

    def close_session(self, session_id: str) -> None:
        shard_name = self.assignment(session_id)
        if shard_name is not None:
            handle = self._shards[shard_name]
            try:
                handle.evict(session_id)
            except ServingError:
                # A crashed-but-undetected shard raises before its
                # handle forgets the id; discard it here so the later
                # death sweep cannot resurrect a closed session.
                handle.sessions.discard(session_id)
        del self._assign[session_id]
        self._meta.pop(session_id, None)
        self._next_window.pop(session_id, None)
        self.checkpoints.discard(session_id)

    # -- ingest ----------------------------------------------------------
    def ingest_imu(self, session_id: str, now: float, values) -> None:
        """Route an IMU sample to the owning shard (lost while parked)."""
        shard_name = self.assignment(session_id)
        if shard_name is None:
            return
        try:
            self._shards[shard_name].ingest_imu(session_id, now, values)
        except ServingError:
            pass  # dead-but-undetected shard: the sample dies with it

    def ingest_frame(self, session_id: str, now: float, image) -> None:
        """Route a camera frame to the owning shard (lost while parked)."""
        shard_name = self.assignment(session_id)
        if shard_name is None:
            return
        try:
            self._shards[shard_name].ingest_frame(session_id, now, image)
        except ServingError:
            pass

    # -- request path ----------------------------------------------------
    def request_verdict(self, session_id: str, now: float) -> int:
        """Admit one (driver, window) into the ledger; returns window id.

        The ladder, in order: queue on the owning shard; on shard
        failure, one immediate retry on the next survivor around the
        ring (which only helps once the session has migrated there);
        otherwise journal-and-defer.  Every admitted window id resolves
        to exactly one of *delivered* or *deferred* — never nothing.
        """
        shard_name = self.assignment(session_id)
        window_id = self._next_window[session_id]
        self._next_window[session_id] = window_id + 1
        expires_at = now + self.request_deadline
        key = (session_id, window_id)
        if shard_name is not None:
            if self._try_request(self._shards[shard_name], key, now,
                                 expires_at, retried=False):
                return window_id
            survivor = self.ring.route(
                session_id, exclude={shard_name})
            if survivor is not None and \
                    session_id in self._shards[survivor].sessions:
                self._obs_retries.inc()
                if self._try_request(self._shards[survivor], key, now,
                                     expires_at, retried=True):
                    return window_id
        self._defer(key, now, reason="no shard could accept the request")
        return window_id

    def _try_request(self, handle: ShardHandle, key: tuple[str, int],
                     now: float, expires_at: float, *,
                     retried: bool) -> bool:
        session_id, window_id = key
        try:
            sequence = handle.request(session_id, now, expires_at)
        except ServingError:
            return False
        if sequence is None:
            return False
        pending = PendingWindow(session_id=session_id, window_id=window_id,
                                requested_at=now, expires_at=expires_at,
                                shard=handle.name, shard_sequence=sequence,
                                retried=retried)
        self._pending[key] = pending
        self._by_shard_seq[(handle.name, session_id, sequence)] = key
        return True

    def _defer(self, key: tuple[str, int], now: float, *,
               reason: str) -> None:
        session_id, window_id = key
        if key in self.delivered_ids or key in self.deferred_ids:
            return
        self.deferred_ids.add(key)
        self._obs_deferred.inc()
        self._pending.pop(key, None)
        self.sink.offer(VerdictRecord(
            session_id=session_id, sequence=window_id, timestamp=now,
            kind=KIND_DEFERRED, reason=reason))

    def _on_request_expired(self, request) -> None:
        """Server hook: a queued request hit its deadline — defer it."""
        for shard_name in self._shards:
            seq_key = (shard_name, request.session_id, request.sequence)
            key = self._by_shard_seq.get(seq_key)
            if key is not None and key in self._pending:
                self._by_shard_seq.pop(seq_key, None)
                self._defer(key, request.expires_at,
                            reason="request deadline expired in queue")
                return

    # -- the supervision loop --------------------------------------------
    def step(self, now: float) -> list[ServingVerdict]:
        """One supervision tick: heartbeats, watchdog, restarts,
        checkpoints, shard dispatch, deadline sweep, sink pump."""
        self._collect_heartbeats(now)
        for shard_name, state in self.health.step(now):
            handle = self._shards[shard_name]
            if state is HealthState.SILENT and handle.state == SHARD_UP:
                self._declare_dead(handle, now, cause="heartbeat silence")
        self._maybe_restart(now)
        self._take_checkpoints(now)
        verdicts = self._step_shards(now)
        self._sweep_deadlines(now)
        self.sink.pump(now)
        return verdicts

    def drain(self, now: float) -> list[ServingVerdict]:
        """Force-flush every live shard and resolve every open window.

        End-of-replay semantics: whatever is still pending after the
        force flush — windows stuck in a dead shard, requests nothing
        could serve — is journaled-and-deferred, so the ledger closes
        with ``delivered + deferred == requested`` and zero silent loss.
        """
        verdicts = self._step_shards(now, force=True)
        for key in list(self._pending):
            self._defer(key, now, reason="undelivered at drain")
        self.sink.pump(now)
        self.journal.sync()
        return verdicts

    def close(self) -> None:
        """Close every shard and the journal; a temp-file journal this
        supervisor created is deleted once it closes cleanly."""
        for handle in self._shards.values():
            if handle.server is not None:
                handle.server.close()
        self.journal.close()
        if self._temp_journal and not self.journal.overflow_depth:
            self._temp_journal = False
            os.remove(self.journal.path)

    # -- step phases -----------------------------------------------------
    def _collect_heartbeats(self, now: float) -> None:
        if now < self._next_heartbeat:
            return
        self._next_heartbeat = now + self.heartbeat_interval
        for handle in self._shards.values():
            if handle.state != SHARD_UP:
                continue
            try:
                beat = handle.heartbeat(now)
            except ServingError:
                continue  # silence; the registry clock keeps running
            self.health.record_heartbeat(beat, now)

    def _take_checkpoints(self, now: float) -> None:
        for session_id, shard_name in self._assign.items():
            if shard_name is None:
                continue
            if not self.checkpoints.due(session_id, now):
                continue
            handle = self._shards[shard_name]
            try:
                session = handle.export_session(session_id)
            except ServingError:
                continue  # dead-but-undetected: keep the old checkpoint
            self.checkpoints.take(session, now)

    def _step_shards(self, now: float, *,
                     force: bool = False) -> list[ServingVerdict]:
        collected: list[ServingVerdict] = []
        for handle in self._shards.values():
            if handle.state != SHARD_UP:
                continue
            try:
                verdicts = handle.step(now, force=force)
            except ServingError:
                continue  # watchdog heartbeats will catch persistent death
            for verdict in verdicts:
                self._record_verdict(handle.name, verdict)
                collected.append(verdict)
        return collected

    def _record_verdict(self, shard_name: str,
                        verdict: ServingVerdict) -> None:
        key = self._by_shard_seq.pop(
            (shard_name, verdict.session_id, verdict.sequence), None)
        if key is None:
            return  # stale verdict from before a migration; already resolved
        pending = self._pending.pop(key, None)
        if pending is None or key in self.delivered_ids \
                or key in self.deferred_ids:
            return
        self.delivered_ids.add(key)
        self.sink.offer(VerdictRecord(
            session_id=key[0], sequence=key[1], timestamp=verdict.timestamp,
            predicted=verdict.predicted,
            confidence=verdict.confidence, degraded=verdict.degraded,
            model_key=verdict.model_key))

    def _sweep_deadlines(self, now: float) -> None:
        for key, pending in list(self._pending.items()):
            if now <= pending.expires_at:
                continue
            shard = self._shards.get(pending.shard)
            if shard is not None and shard.state == SHARD_UP:
                # The shard's own pop_expired will fire on its next
                # step; only windows stranded on dead shards need the
                # supervisor to act.
                continue
            self._defer(key, now, reason="owning shard died before dispatch")

    # -- death, migration, restart ---------------------------------------
    def _declare_dead(self, handle: ShardHandle, now: float, *,
                      cause: str) -> None:
        handle.state = SHARD_DOWN
        handle.server = None
        handle.died_at = now
        handle.last_cause = cause
        handle.backoff = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** handle.restarts)
        handle.restart_at = now + handle.backoff
        self.ring.remove(handle.name)
        self._obs_deaths.inc()
        self._obs_up.set(len(self.shards_up))
        orphans = sorted(handle.sessions)
        handle.sessions = set()
        for session_id in orphans:
            self._migrate_from_checkpoint(session_id, handle.name, now)
        self._retry_pending_of(handle.name, now)

    def _migrate_from_checkpoint(self, session_id: str, source: str,
                                 now: float) -> None:
        meta = self._meta.get(session_id)
        if meta is None or session_id not in self._assign:
            return  # closed while its shard was dead-but-undetected
        target_name = self.ring.route(session_id)
        if target_name is None:
            self._assign[session_id] = None  # parked until a restart
            return
        target = self._shards[target_name]
        session = self.checkpoints.restore(session_id)
        if session is None:
            session = DriverSession(session_id=session_id,
                                    driver_id=meta["driver_id"],
                                    privacy=meta["privacy"],
                                    base_priority=meta["base_priority"])
        try:
            target.adopt(session)
        except ServingError:
            self._assign[session_id] = None
            return
        self._assign[session_id] = target_name
        self._obs_migrations.inc()
        self.migrations.append(MigrationEvent(
            at=now, session_id=session_id, source=source,
            target=target_name, via="checkpoint"))

    def _retry_pending_of(self, shard_name: str, now: float) -> None:
        """Head-of-line retry for windows stranded in a dead shard."""
        stranded = [key for key, p in self._pending.items()
                    if p.shard == shard_name]
        for key in stranded:
            pending = self._pending.pop(key)
            self._by_shard_seq.pop(
                (shard_name, pending.session_id, pending.shard_sequence),
                None)
            if pending.retried:
                self._defer(key, now, reason="retry shard also died")
                continue
            session_id = pending.session_id
            target_name = self._assign.get(session_id)
            if target_name is None:
                self._defer(key, now, reason="no surviving shard")
                continue
            self._obs_retries.inc()
            if not self._try_request(self._shards[target_name], key, now,
                                     pending.expires_at, retried=True):
                self._defer(key, now,
                            reason="survivor could not serve the retry")

    def _maybe_restart(self, now: float) -> None:
        for handle in self._shards.values():
            if handle.state != SHARD_DOWN or handle.restart_at is None:
                continue
            if now < handle.restart_at:
                continue
            self._restart(handle, now)

    def _restart(self, handle: ShardHandle, now: float) -> None:
        handle.server = self._build_server()
        handle.state = SHARD_UP
        handle.crashed = False
        handle.hung = False
        handle.restarts += 1
        handle.restart_at = None
        handle.up_since = now
        self.ring.add(handle.name)
        self.health.record_activity(handle.name, now)
        self._obs_restarts.inc()
        self._obs_up.set(len(self.shards_up))
        if handle.died_at is not None:
            self.recovery_times.append(now - handle.died_at)
            self._obs_recovery.observe(now - handle.died_at)
            handle.died_at = None
        self._rebalance_to(handle, now)

    def _rebalance_to(self, handle: ShardHandle, now: float) -> None:
        """Move home sessions back onto a freshly restarted shard.

        Parked sessions (no shard could adopt them) restore from their
        checkpoint; sessions living on a survivor move *live* — the
        survivor exports the current object, so nothing regresses to an
        older snapshot.
        """
        for session_id, current in list(self._assign.items()):
            home = self.ring.route(session_id)
            if home != handle.name or current == handle.name:
                continue
            if current is None:
                session = self.checkpoints.restore(session_id)
                if session is None:
                    meta = self._meta[session_id]
                    session = DriverSession(
                        session_id=session_id,
                        driver_id=meta["driver_id"],
                        privacy=meta["privacy"],
                        base_priority=meta["base_priority"])
                via = "checkpoint"
                source = "(parked)"
            else:
                source_handle = self._shards[current]
                try:
                    session = source_handle.evict(session_id)
                except ServingError:
                    continue  # the survivor just died too; next watchdog
                via = "live"
                source = current
            try:
                handle.adopt(session)
            except ServingError:
                self._assign[session_id] = None
                continue
            self._assign[session_id] = handle.name
            self._obs_migrations.inc()
            self.migrations.append(MigrationEvent(
                at=now, session_id=session_id, source=source,
                target=handle.name, via=via))

    # -- observability ---------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Supervisor + every live shard's series in one document."""
        from repro.obs.metrics import get_registry

        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        for handle in self._shards.values():
            if handle.server is not None:
                merged.merge(handle.server.metrics.snapshot())
        merged.merge(get_registry().snapshot())
        return merged.snapshot()

    @property
    def recovery_p99(self) -> float:
        """p99 of shard death-to-restart, in simulation seconds."""
        return self._obs_recovery.percentile(99.0)

    @property
    def stats(self) -> dict:
        """Plain-dict supervisor counters for reports and tests."""
        return {
            "shards_up": len(self.shards_up),
            "deaths": int(self._obs_deaths.value),
            "restarts": int(self._obs_restarts.value),
            "migrations": int(self._obs_migrations.value),
            "retries": int(self._obs_retries.value),
            "deferred": int(self._obs_deferred.value),
            "delivered": len(self.delivered_ids),
            "pending": len(self._pending),
            "recovery_max": (max(self.recovery_times)
                             if self.recovery_times else 0.0),
        }
