"""Durable verdict journal: an append-only, fsync-batched write-ahead log.

The serving tier's promise is that an admitted verdict request is never
*silently* lost — not when a shard dies, not when the downstream alert
sink is unreachable, not when the serving process itself is SIGKILLed.
The journal is the durability half of that promise:

* every delivered verdict (and every *deferred* request the degradation
  ladder could not answer immediately) is appended as a length-prefixed,
  CRC-framed record, and flushed to the OS, before it counts as handled,
  so a SIGKILL of the serving process loses none of it;
* ``fsync`` is batched (every ``fsync_every`` records) so durability
  against power loss costs one disk barrier per batch, not per verdict;
* :func:`replay_journal` reads a journal back after a crash, *verifying
  every frame*: a torn tail (the record a SIGKILL interrupted) is
  detected by its CRC/length and dropped rather than parsed into
  garbage, and duplicate appends — a retried dispatch journals twice —
  are deduplicated by ``(session_id, sequence)``, the (driver, window)
  identity of a verdict;
* when the disk itself fails (ENOSPC chaos), appends degrade to an
  in-memory overflow buffer that drains back to disk on recovery, so a
  full disk weakens durability without dropping records.

:class:`StoreAndForwardSink` builds the delivery half on top: verdicts
are journaled first, then forwarded to the downstream sink; when the
sink is unreachable they accumulate as journal-backed pending work and
drain in order on reconnect, deduplicated so a reconnect never
double-alerts.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, JournalError
from repro.obs.metrics import MetricsRegistry, get_registry

#: Frame layout: magic(2) | payload_length:u32 LE | crc32(payload):u32 LE.
MAGIC = b"VJ"
_HEADER = struct.Struct("<2sII")

#: Record kinds the journal carries.
KIND_VERDICT = "verdict"
KIND_DEFERRED = "deferred"


@dataclass(frozen=True)
class VerdictRecord:
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

    def to_payload(self) -> bytes:
        """The canonical JSON wire form (sorted keys, compact)."""
        return json.dumps({
            "session_id": self.session_id, "sequence": self.sequence,
            "timestamp": self.timestamp, "kind": self.kind,
            "predicted": self.predicted, "confidence": self.confidence,
            "degraded": self.degraded, "model_key": self.model_key,
            "reason": self.reason,
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "VerdictRecord":
        data = json.loads(payload.decode("utf-8"))
        return cls(session_id=data["session_id"],
                   sequence=int(data["sequence"]),
                   timestamp=float(data["timestamp"]),
                   kind=data.get("kind", KIND_VERDICT),
                   predicted=int(data.get("predicted", -1)),
                   confidence=float(data.get("confidence", 0.0)),
                   degraded=bool(data.get("degraded", False)),
                   model_key=data.get("model_key", ""),
                   reason=data.get("reason", ""))


def frame_record(record: VerdictRecord) -> bytes:
    """One on-disk frame: header + payload, CRC over the payload."""
    payload = record.to_payload()
    return _HEADER.pack(MAGIC, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


@dataclass
class JournalReplay:
    """What :func:`replay_journal` recovered from a journal file."""

    records: list[VerdictRecord] = field(default_factory=list)
    duplicates: int = 0
    torn: int = 0
    bytes_read: int = 0

    @property
    def ids(self) -> set[tuple[str, int]]:
        """The deduplicated (driver, window) ids recovered."""
        return {record.record_id for record in self.records}


def replay_journal(path: str) -> JournalReplay:
    """Crash-safe replay: parse every intact frame, dedup, drop the torn tail.

    A record is accepted only when its magic, length and CRC all verify;
    the first frame that fails (a partial write from a crash mid-append)
    ends the replay and is counted in ``torn`` — a torn record is never
    surfaced as data.  Duplicate (driver, window) ids keep their first
    occurrence (append order is delivery order; later appends are
    retries of the same window).
    """
    replay = JournalReplay()
    if not os.path.exists(path):
        return replay
    with open(path, "rb") as handle:
        blob = handle.read()
    seen: set[tuple[str, int]] = set()
    offset = 0
    while offset < len(blob):
        header = blob[offset:offset + _HEADER.size]
        if len(header) < _HEADER.size:
            replay.torn += 1
            break
        magic, length, crc = _HEADER.unpack(header)
        payload = blob[offset + _HEADER.size:offset + _HEADER.size + length]
        if (magic != MAGIC or len(payload) < length
                or zlib.crc32(payload) & 0xFFFFFFFF != crc):
            replay.torn += 1
            break
        try:
            record = VerdictRecord.from_payload(payload)
        except (ValueError, KeyError):
            replay.torn += 1
            break
        offset += _HEADER.size + length
        replay.bytes_read = offset
        if record.record_id in seen:
            replay.duplicates += 1
            continue
        seen.add(record.record_id)
        replay.records.append(record)
    return replay


class VerdictJournal:
    """Append-only verdict WAL with batched fsync and ENOSPC degradation.

    Args:
        path: journal file (created/appended; parent directory must
            exist).
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
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        try:
            self._handle = open(self.path, "ab")
        except OSError as error:
            raise JournalError(f"cannot open journal {path!r}: {error}") \
                from error
        self._since_sync = 0
        self._disk_full = False
        self._overflow: list[VerdictRecord] = []
        self._unsynced: list[VerdictRecord] = []
        self.appended = 0
        self.synced = 0
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
        if not self._disk_full:
            self._drain_overflow()

    @property
    def disk_full(self) -> bool:
        return self._disk_full

    @property
    def overflow_depth(self) -> int:
        """Records currently parked in memory waiting for disk space."""
        return len(self._overflow)

    # -- appending -------------------------------------------------------
    def append(self, record: VerdictRecord) -> bool:
        """Durably queue one record; returns True if it reached disk.

        With a full (or failing) disk the record is kept in the memory
        overflow buffer instead — weaker durability, zero loss within
        the process — and drains to disk in order once space returns.
        """
        self.appended += 1
        self._obs_appends.inc()
        if self._disk_full:
            self._overflow.append(record)
            self.overflowed += 1
            self._obs_overflow.inc()
            return False
        self._drain_overflow()
        if self._disk_full:
            # The drain itself tripped disk-full; the new record must
            # queue behind the still-parked older records, never jump
            # them onto disk.
            self._overflow.append(record)
            self.overflowed += 1
            self._obs_overflow.inc()
            return False
        if not self._write(record):
            self._overflow.append(record)
            self.overflowed += 1
            self._obs_overflow.inc()
            return False
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()
        return True

    def _write(self, record: VerdictRecord) -> bool:
        try:
            self._handle.write(frame_record(record))
            self._handle.flush()
        except OSError:
            self._disk_full = True
            return False
        self._unsynced.append(record)
        self._obs_bytes.set(self.size_bytes)
        return True

    def _drain_overflow(self) -> None:
        while self._overflow and not self._disk_full:
            if not self._write(self._overflow[0]):
                return
            self._overflow.pop(0)
            self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Flush buffered frames and issue the disk barrier.

        On a flush/fsync failure the records append() acknowledged but
        the barrier never covered move back to the overflow buffer —
        ahead of anything newer — so a later drain rewrites them instead
        of trusting a userspace buffer the kernel may have dropped.  If
        the original bytes did land, replay dedups the rewrite by
        (driver, window) id.
        """
        if self._handle.closed:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            self._disk_full = True
            if self._unsynced:
                self._overflow[:0] = self._unsynced
                self.overflowed += len(self._unsynced)
                self._obs_overflow.inc(len(self._unsynced))
                self._unsynced.clear()
            self._since_sync = 0
            return
        self._unsynced.clear()
        self.synced = self.appended - len(self._overflow)
        self._since_sync = 0

    # -- inspection ------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes written to the journal file so far (buffered included)."""
        if self._handle.closed:
            try:
                return os.path.getsize(self.path)
            except OSError:
                return 0
        return self._handle.tell()

    def set_depth(self, depth: int) -> None:
        """Publish the undelivered-record depth (set by the owning sink)."""
        self._obs_depth.set(depth)

    def replay(self) -> JournalReplay:
        """Re-read this journal from disk (syncs buffered frames first)."""
        self.sync()
        return replay_journal(self.path)

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()


class StoreAndForwardSink:
    """Journal-backed delivery to a downstream verdict consumer.

    Every offered record is journaled *before* a delivery attempt, then
    forwarded in order.  When the downstream raises (or the sink is
    blackholed by chaos) records accumulate as pending work; ``pump``
    retries on every supervisor step and drains the backlog in order on
    reconnect.  Delivery is deduplicated by (driver, window) id, so a
    window retried through both a failed shard and its adoptee reaches
    the downstream exactly once.

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
        self._pending: deque[VerdictRecord] = deque()
        self._pending_ids: set[tuple[str, int]] = set()
        self._delivered_ids: set[tuple[str, int]] = set()
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
        """Journal a record and queue it for downstream delivery."""
        if record.record_id in self._delivered_ids:
            self.duplicates_suppressed += 1
            return
        self.journal.append(record)
        if record.record_id in self._pending_ids:
            self.duplicates_suppressed += 1
            return
        self._pending.append(record)
        self._pending_ids.add(record.record_id)
        self.journal.set_depth(len(self._pending))

    def pump(self, now: float) -> int:
        """Attempt delivery of everything pending; returns records sent."""
        del now  # deliveries are attempted every pump; no wall timers
        sent = 0
        while self._pending:
            record = self._pending[0]
            if record.record_id in self._delivered_ids:
                self._pending.popleft()
                self._pending_ids.discard(record.record_id)
                self.duplicates_suppressed += 1
                continue
            if not self._deliver(record):
                break
            self._pending.popleft()
            self._pending_ids.discard(record.record_id)
            self._delivered_ids.add(record.record_id)
            self.delivered.append(record)
            self._obs_delivered.inc()
            sent += 1
        self.journal.set_depth(len(self._pending))
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
