"""Durable verdict journal: the serving tier's write-ahead log.

The serving tier's promise is that an admitted verdict request is never
*silently* lost — not when a shard dies, not when the downstream alert
sink is unreachable, not when the serving process itself is SIGKILLed.
The journal is the durability half of that promise.  It is a
:mod:`repro.wal` log of ``b"VJ"`` frames, one per :class:`VerdictRecord`,
so framing, verifying replay, torn-tail truncation on open, the flush per
frame and the batched fsync are the log's.  The journal adds its policy:

* every delivered verdict (and every *deferred* request the degradation
  ladder could not answer immediately) is appended before it counts as
  handled; :func:`replay_journal` dedups by ``(session_id, sequence)``,
  the (driver, window) identity of a verdict, since a record rewritten
  after a failed barrier can land twice;
* when the disk itself fails (ENOSPC), appends degrade to an in-memory
  overflow list that every later append retries, in order, before
  writing its own record, so a full disk weakens durability without
  dropping records; :meth:`VerdictJournal.close` drains it and raises
  if records are still stuck in memory;
* deliveries are recorded as the edge spool records uploads, in the ack
  codec of :mod:`repro.wal`: the sink delivers in journal order, so one
  ``WM`` watermark frame carrying how many distinct records it has
  delivered follows every pump that delivered something.

:class:`StoreAndForwardSink` builds the delivery half on top: verdicts
are journaled first, then forwarded to the downstream sink; when the
sink is unreachable they accumulate as journal-backed pending work and
drain in order on reconnect, deduplicated so a reconnect never
double-alerts.  A sink built over a reopened journal resumes from it,
so a crash between a delivery and its watermark costs a redelivery of
that pump's records, never a loss.  :func:`audit_ledger` is the
zero-loss check the serving and edge chaos drives both run over a sink
and its journal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import wal
from repro.exceptions import JournalError
from repro.obs.metrics import MetricsRegistry, get_registry

#: The frame magic of a journaled :class:`VerdictRecord`.
MAGIC = b"VJ"

#: Record kinds the journal carries.
KIND_VERDICT = "verdict"
KIND_DEFERRED = "deferred"


@dataclass(frozen=True)
class VerdictRecord(wal.JsonRecord):
    """One journaled serving outcome for a (driver, window) id.

    ``kind`` is ``"verdict"`` for a delivered classification and
    ``"deferred"`` for a window the degradation ladder journaled instead
    of answering (no live shard could serve it before its deadline); a
    deferred record keeps the window accounted for — durable, replayable,
    never silently dropped.
    """

    session_id: str
    sequence: int
    timestamp: float
    kind: str = KIND_VERDICT
    predicted: int = -1
    confidence: float = 0.0
    degraded: bool = False
    model_key: str = ""
    reason: str = ""

    @property
    def record_id(self) -> tuple[str, int]:
        """The (driver, window) identity deduplication keys on."""
        return (self.session_id, self.sequence)


def frame_record(record: VerdictRecord) -> bytes:
    """One on-disk frame: header + payload, CRC over the payload."""
    return wal.frame(MAGIC, record.to_payload())


def replay_journal(path: str) -> wal.Replay:
    """Crash-safe replay (:func:`repro.wal.scan`): every verified frame,
    the first append of each (driver, window) id kept — append order is
    delivery order, later appends are rewrites — the delivered count in
    ``acks.through``, and a torn tail counted in ``torn``, never
    surfaced as data."""
    return wal.scan(path, MAGIC, VerdictRecord.from_payload)


@dataclass
class LedgerAudit:
    """What :func:`audit_ledger` found, each finding with its violation."""

    lost: set
    duplicates: int
    undelivered: set
    unjournaled: set
    torn: int
    journal: wal.Replay
    violations: list[str]


def audit_ledger(expected, resolved, sink: StoreAndForwardSink,
                 journal_path: str) -> LedgerAudit:
    """The zero-loss audit of one journal-backed delivery ledger.

    Every ``expected`` (driver, window) id must be ``resolved`` —
    delivered, or journaled as deferred where the tier defers; ``sink``
    must have delivered each resolved id downstream, and each record id
    at most once; every resolved id must replay from the journal at
    ``journal_path``, which the caller has synced or closed; and that
    replay must end on no torn frame.
    """
    resolved = set(resolved)
    lost = set(expected) - resolved
    delivered = {r.record_id for r in sink.delivered}
    duplicates = len(sink.delivered) - len(delivered)
    undelivered = resolved - delivered
    journal = replay_journal(journal_path)
    unjournaled = resolved - journal.ids
    violations = [message for count, message in (
        (len(lost), f"{len(lost)} ids neither delivered nor deferred "
                    f"(e.g. {sorted(lost)[:3]})"),
        (duplicates, f"{duplicates} duplicate downstream deliveries"),
        (len(undelivered), f"{len(undelivered)} resolved ids never reached "
                           "the downstream"),
        (len(unjournaled), f"{len(unjournaled)} resolved ids missing from "
                           "the journal replay"),
        (journal.torn, f"{journal.torn} torn journal frames after a clean "
                       "close")) if count]
    return LedgerAudit(lost, duplicates, undelivered, unjournaled,
                       journal.torn, journal, violations)


class VerdictJournal:
    """Append-only verdict WAL with batched fsync and ENOSPC degradation.

    Args:
        path: journal file (created/appended; parent directory must
            exist).  A torn final frame left by a crash is truncated on
            open; ``torn_truncated`` counts it.
        fsync_every: records between disk barriers.  Every frame is
            flushed to the OS as it is appended, so a process crash
            loses nothing appended; power loss can lose the frames
            since the last barrier, and a torn final frame is detected
            on replay.
        registry: metrics registry for the journal gauges
            (``serving_journal_disk_bytes``, depth, appends, overflow);
            the process default when omitted.
    """

    def __init__(self, path: str, *, fsync_every: int = 8,
                 registry: MetricsRegistry | None = None) -> None:
        self._log, recovered = wal.Log.open(
            path, replay_journal, fsync_every=fsync_every, error=JournalError)
        self.path = self._log.path
        self.torn_truncated = recovered.torn
        self._acks = recovered.acks  # ``through``: records delivered
        self._recovered = (recovered.ids,
                           recovered.records[self._acks.through:])
        #: Set by :meth:`simulate_disk_full`: appends park in memory
        #: without touching the disk until it is cleared.
        self._disk_full = False
        self._overflow: list[VerdictRecord] = []
        self._unsynced: list[VerdictRecord] = []
        self.overflowed = 0
        registry = registry or get_registry()
        self._obs_bytes = registry.gauge(
            "serving_journal_disk_bytes",
            "Bytes of verdict journal currently on disk")
        self._obs_depth = registry.gauge(
            "serving_journal_depth",
            "Journaled records not yet delivered downstream")
        self._obs_appends = registry.counter(
            "serving_journal_appends_total",
            "Records appended to the verdict journal")
        self._obs_overflow = registry.counter(
            "serving_journal_overflow_total",
            "Records buffered in memory because the journal disk was full")
        self._obs_bytes.set(self.size_bytes)

    # -- fault injection -------------------------------------------------
    def simulate_disk_full(self, full: bool) -> None:
        """Chaos hook: make appends fail as if the disk had no space."""
        self._disk_full = bool(full)
        self._drain_overflow()

    @property
    def disk_full(self) -> bool:
        """Whether appends are parking in memory: the chaos hook is set,
        or a real write error left records the next append retries."""
        return self._disk_full or bool(self._overflow)

    @property
    def overflow_depth(self) -> int:
        """Records currently parked in memory waiting for disk space."""
        return len(self._overflow)

    # -- appending -------------------------------------------------------
    def append(self, record: VerdictRecord) -> bool:
        """Durably queue one record; returns True if it reached disk.

        With a full (or failing) disk the record is kept in the memory
        overflow buffer instead — weaker durability, zero loss within
        the process.  Every append first retries the parked records in
        order, so they drain as soon as a write succeeds again.
        """
        self._obs_appends.inc()
        self._drain_overflow()
        # A record never jumps still-parked older records onto disk.
        if self._disk_full or self._overflow or not self._write(record):
            self._overflow.append(record)
            self.overflowed += 1
            self._obs_overflow.inc()
            return False
        if self._log.sync_due:
            self.sync()
        return True

    def _write(self, record: VerdictRecord) -> bool:
        try:
            self._log.write(frame_record(record))
        except OSError:
            return False
        self._unsynced.append(record)
        self._obs_bytes.set(self.size_bytes)
        return True

    def _drain_overflow(self) -> None:
        while self._overflow and not self._disk_full:
            if not self._write(self._overflow[0]):
                return
            self._overflow.pop(0)
        if self._log.sync_due:
            self.sync()

    def mark_delivered(self, through: int) -> None:
        """Record that the first ``through`` distinct records are delivered:
        a watermark frame, outside the fsync batch like the spool's acks.
        It never lands ahead of a record it covers: while records wait in
        the memory overflow it is skipped, and the next call carries it."""
        if through <= self._acks.through or self.disk_full:
            return
        self._acks.raise_through(through)
        try:
            self._log.write(wal.frame_watermark(self._acks), record=False)
        except OSError:
            pass  # a lost watermark only costs a redelivery
        self._obs_bytes.set(self.size_bytes)

    def sync(self) -> None:
        """Flush buffered frames and issue the disk barrier.

        On a flush/fsync failure the records append() acknowledged but
        the barrier never covered move back to the overflow buffer —
        ahead of anything newer — so a later drain rewrites them instead
        of trusting a userspace buffer the kernel may have dropped.  If
        the original bytes did land, replay dedups the rewrite by
        (driver, window) id.
        """
        try:
            self._log.sync()
        except OSError:
            self._overflow[:0] = self._unsynced
            self.overflowed += len(self._unsynced)
            self._obs_overflow.inc(len(self._unsynced))
        self._unsynced.clear()

    # -- inspection ------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes written to the journal file so far (buffered included)."""
        return self._log.size_bytes

    def set_depth(self, depth: int) -> None:
        """Publish the undelivered-record depth (set by the owning sink)."""
        self._obs_depth.set(depth)

    def resume(self) -> tuple[set, list[VerdictRecord]]:
        """What the opening scan recovered, handed once to the sink built
        over this journal: every record id, and the records after those
        the last watermark counts delivered, in journal order."""
        recovered, self._recovered = self._recovered, (set(), [])
        return recovered

    def replay(self) -> wal.Replay:
        """Re-read this journal from disk (syncs buffered frames first)."""
        self.sync()
        return replay_journal(self.path)

    def close(self) -> None:
        """Drain the overflow, sync and close the file.

        Raises :class:`JournalError` when records are still parked in
        memory: they never reached disk and close does not pretend they
        did.
        """
        if self._log.closed:
            return
        self._drain_overflow()
        self.sync()
        self._log.close()
        if self._overflow:
            raise JournalError(
                f"journal {self.path!r} closed with "
                f"{len(self._overflow)} records still in memory")


class StoreAndForwardSink:
    """Journal-backed delivery to a downstream verdict consumer.

    Every offered record is journaled *before* a delivery attempt, then
    forwarded in order.  When the downstream raises (or the sink is
    blackholed by chaos) records accumulate as pending work; ``pump``
    retries on every supervisor step and drains the backlog in order on
    reconnect.  Delivery is deduplicated by (driver, window) id, so a
    window retried through both a failed shard and its adoptee reaches
    the downstream exactly once.  A sink built over a reopened journal
    resumes from its last watermark (:meth:`VerdictJournal.resume`).

    Args:
        journal: the durable WAL backing the pending queue.
        downstream: callable taking one :class:`VerdictRecord`; raising
            marks the sink unreachable until the next pump.  ``None``
            collects records internally (``delivered`` list).
    """

    def __init__(self, journal: VerdictJournal,
                 downstream=None, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.journal = journal
        self.downstream = downstream
        self.blackholed = False
        self.delivered: list[VerdictRecord] = []
        # Every id journaled; the ones not pending are delivered, and
        # they are the journal's first distinct records.
        self._ids, pending = journal.resume()
        self._pending = deque(pending)
        self.duplicates_suppressed = 0
        self.delivery_failures = 0
        registry = registry or get_registry()
        self._obs_delivered = registry.counter(
            "serving_sink_delivered_total",
            "Verdict records delivered to the downstream sink")
        self._obs_failures = registry.counter(
            "serving_sink_failures_total",
            "Delivery attempts the downstream sink refused")

    @property
    def pending(self) -> int:
        """Records journaled but not yet delivered downstream."""
        return len(self._pending)

    def offer(self, record: VerdictRecord) -> None:
        """Journal a record and queue it for downstream delivery; an id
        already journaled, delivered or pending, is suppressed."""
        if record.record_id in self._ids:
            self.duplicates_suppressed += 1
            return
        self.journal.append(record)
        self._ids.add(record.record_id)
        self._pending.append(record)
        self.journal.set_depth(len(self._pending))

    def pump(self, now: float) -> int:
        """Attempt delivery of everything pending; returns records sent."""
        del now  # deliveries are attempted every pump; no wall timers
        sent = 0
        while self._pending and self._deliver(self._pending[0]):
            self.delivered.append(self._pending.popleft())
            self._obs_delivered.inc()
            sent += 1
        self.journal.set_depth(len(self._pending))
        self.journal.mark_delivered(len(self._ids) - len(self._pending))
        return sent

    def _deliver(self, record: VerdictRecord) -> bool:
        if self.blackholed:
            self.delivery_failures += 1
            self._obs_failures.inc()
            return False
        if self.downstream is None:
            return True
        try:
            self.downstream(record)
        except Exception:  # noqa: BLE001 — the sink is a fault barrier
            self.delivery_failures += 1
            self._obs_failures.inc()
            return False
        return True
