"""On-device store-and-forward spool: verdicts survive a dead uplink.

The edge agent's contract mirrors the serving journal's: a verdict the
device produced is never *silently* lost — not when the uplink is
blackholed for a minute, not when the agent process is SIGKILLed
mid-append.  The spool is the same append-only, CRC-framed,
fsync-batched WAL idiom as :mod:`repro.serving.journal`, adapted to the
device side:

* every verdict (and every evidence clip) is framed to disk *before* an
  upload is attempted, and each frame is flushed to the OS as it is
  written, so a SIGKILL of the agent loses none of it; ``fsync_every``
  batches only the disk barrier that power loss needs;
* controller acks are **ack frames** in the same log.  Recovery rebuilds
  the ack state from the frames it replays, and only unacknowledged
  records re-enter the upload queue (the controller dedups by record id,
  so a torn ack frame costs a duplicate upload, never a lost record);
* :meth:`EdgeSpool.compact` rewrites the log as one **watermark frame**
  — every sequence up to the contiguous ack watermark, plus the
  out-of-order acks above it — followed by the pending records, so later
  acks still fold into the watermark and the acked history is not lost;
* :meth:`EdgeSpool.open` replays the WAL on startup, and a torn tail —
  the frame a SIGKILL interrupted — is detected by its CRC/length and
  **truncated in place**, so the next append starts on a clean frame
  boundary instead of corrupting everything after it;
* recovery also restores :attr:`EdgeSpool.last_sequence`, the highest
  sequence ever spooled *or* acknowledged, so a restarted agent resumes
  numbering past its previous incarnation — a reused sequence would be
  deduplicated downstream, i.e. a verdict silently lost.

Earlier versions kept the acks in a ``<path>.cursor`` sidecar file; the
spool ignores it.  Safety beats freshness: the records that file marked
acknowledged are uploaded again and deduplicated by the controller.  A
spool that was compacted down to an empty log under that format also
forgets its sequence high-water mark, so such a device should come back
under a fresh spool path and agent id.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from repro.exceptions import ConfigurationError, SpoolError
from repro.obs.metrics import MetricsRegistry, get_registry

#: Frame layout: magic(2) | payload_length:u32 LE | crc32(payload):u32 LE.
#: The magic names the frame kind.  The CRC covers only the payload, so
#: the three magics differ in at least three bits: no single flipped bit
#: turns a frame of one kind into a valid frame of another.
MAGIC = b"ES"            #: a :class:`SpoolRecord`, canonical JSON
ACK_MAGIC = b"AK"        #: acknowledged sequences, u64 LE each
WATERMARK_MAGIC = b"WM"  #: the ack watermark, then the acks above it
_HEADER = struct.Struct("<2sII")
_SEQUENCE = struct.Struct("<Q")

#: Record kinds the spool carries.
KIND_VERDICT = "verdict"
KIND_CLIP = "clip"


@dataclass(frozen=True)
class SpoolRecord:
    """One spooled upload: a local verdict or an evidence clip.

    ``sequence`` is the agent-scoped upload sequence (one space across
    both kinds); ``(agent_id, sequence)`` is the identity the controller
    dedups on, so a record replayed after a crash or retransmitted over
    a flaky link lands downstream exactly once.
    """

    agent_id: str
    sequence: int
    timestamp: float
    kind: str = KIND_VERDICT
    predicted: int = -1
    confidence: float = 0.0
    degraded: bool = False
    model_version: int = 0
    payload: str = ""     #: hex-encoded evidence bytes for clip records

    @property
    def record_id(self) -> tuple[str, int]:
        return (self.agent_id, self.sequence)

    @property
    def wire_size(self) -> int:
        """Uplink cost: the framed JSON body plus an envelope header.

        Clip records carry their evidence bytes inline, so a clip's wire
        size scales with the clip — the bandwidth model charges for it.
        """
        return len(self._encoded) + 24

    def to_payload(self) -> bytes:
        """The canonical JSON form, encoded once per record."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return json.dumps({
            "agent_id": self.agent_id, "sequence": self.sequence,
            "timestamp": self.timestamp, "kind": self.kind,
            "predicted": self.predicted, "confidence": self.confidence,
            "degraded": self.degraded, "model_version": self.model_version,
            "payload": self.payload,
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "SpoolRecord":
        data = json.loads(payload.decode("utf-8"))
        return cls(agent_id=data["agent_id"],
                   sequence=int(data["sequence"]),
                   timestamp=float(data["timestamp"]),
                   kind=data.get("kind", KIND_VERDICT),
                   predicted=int(data.get("predicted", -1)),
                   confidence=float(data.get("confidence", 0.0)),
                   degraded=bool(data.get("degraded", False)),
                   model_version=int(data.get("model_version", 0)),
                   payload=data.get("payload", ""))


class AckState:
    """Acknowledged sequences: a contiguous watermark (every sequence up
    to ``through`` is acked; sequences are 1-based) plus the out-of-order
    acks above it, which fold into the watermark as the gap below them
    closes."""

    def __init__(self) -> None:
        self.through = 0
        self.extra: set[int] = set()

    def __contains__(self, sequence: int) -> bool:
        return sequence <= self.through or sequence in self.extra

    def add(self, sequence: int) -> None:
        if sequence not in self:
            self.extra.add(sequence)
            self._fold()

    def raise_through(self, through: int) -> None:
        """Mark every sequence up to ``through`` acknowledged."""
        if through > self.through:
            self.through = through
            self.extra = {s for s in self.extra if s > through}
            self._fold()

    def _fold(self) -> None:
        while self.through + 1 in self.extra:
            self.through += 1
            self.extra.remove(self.through)

    @property
    def high(self) -> int:
        """The highest acknowledged sequence (0 when none)."""
        return max(self.through, max(self.extra, default=0))


def _frame(magic: bytes, payload: bytes) -> bytes:
    return _HEADER.pack(magic, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


def frame_spool_record(record: SpoolRecord) -> bytes:
    """One on-disk frame: header + payload, CRC over the payload."""
    return _frame(MAGIC, record.to_payload())


def frame_ack(sequence: int) -> bytes:
    """The frame recording that the controller acked ``sequence``."""
    return _frame(ACK_MAGIC, _SEQUENCE.pack(sequence))


def frame_watermark(acks: AckState) -> bytes:
    """One frame carrying the whole ack state: the watermark first."""
    marks = [acks.through, *sorted(acks.extra)]
    return _frame(WATERMARK_MAGIC, struct.pack(f"<{len(marks)}Q", *marks))


def _sequences(payload: bytes) -> tuple[int, ...]:
    if not payload or len(payload) % _SEQUENCE.size:
        raise ValueError("ack payload is not a whole number of sequences")
    return struct.unpack(f"<{len(payload) // _SEQUENCE.size}Q", payload)


@dataclass
class SpoolReplay:
    """What :func:`replay_spool` recovered from a spool file."""

    records: list[SpoolRecord] = field(default_factory=list)
    acks: AckState = field(default_factory=AckState)
    duplicates: int = 0
    torn: int = 0
    bytes_read: int = 0

    @property
    def pending(self) -> list[SpoolRecord]:
        """The replayed records no replayed ack covers, in log order."""
        return [r for r in self.records if r.sequence not in self.acks]

    @property
    def last_sequence(self) -> int:
        """The highest sequence the log shows spooled or acked."""
        return max(self.acks.high,
                   max((r.sequence for r in self.records), default=0))


def replay_spool(path: str) -> SpoolReplay:
    """Crash-safe replay: parse intact frames, dedup, stop at a torn tail.

    Record frames are deduplicated by record id; ack and watermark
    frames accumulate into :attr:`SpoolReplay.acks`.  ``bytes_read`` is
    the offset of the last fully verified frame — the truncation point a
    recovery pass cuts the file back to.
    """
    replay = SpoolReplay()
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
        if (magic not in (MAGIC, ACK_MAGIC, WATERMARK_MAGIC)
                or len(payload) < length
                or zlib.crc32(payload) & 0xFFFFFFFF != crc):
            replay.torn += 1
            break
        try:
            if magic == MAGIC:
                record = SpoolRecord.from_payload(payload)
            else:
                marks = _sequences(payload)
        except (ValueError, KeyError):
            replay.torn += 1
            break
        offset += _HEADER.size + length
        replay.bytes_read = offset
        if magic != MAGIC:
            if magic == WATERMARK_MAGIC:
                replay.acks.raise_through(marks[0])
                marks = marks[1:]
            for sequence in marks:
                replay.acks.add(sequence)
        elif record.record_id in seen:
            replay.duplicates += 1
        else:
            seen.add(record.record_id)
            replay.records.append(record)
    return replay


class EdgeSpool:
    """Durable upload queue for one edge agent.

    Args:
        path: WAL file; records and the acks of them share it.
        fsync_every: records between disk barriers.
        registry: metrics registry; process default when omitted.

    Use :meth:`open` to construct: it recovers the WAL first (truncating
    any torn tail) and seeds the pending queue with every record no
    replayed ack covers.
    """

    def __init__(self, path: str, *, fsync_every: int = 8,
                 registry: MetricsRegistry | None = None) -> None:
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        self.torn_truncated = 0
        self.appended = 0
        self.acked = 0
        #: Highest sequence ever spooled or acked; seed new sequences
        #: past this so a restart never reuses one.
        self.last_sequence = 0
        self._since_sync = 0
        #: Unacknowledged records by sequence, in append order.
        self._pending: dict[int, SpoolRecord] = {}
        self._acks = AckState()
        registry = registry or get_registry()
        self._obs_depth = registry.gauge(
            "edge_spool_depth", "Spooled records awaiting upload ack")
        self._obs_bytes = registry.gauge(
            "edge_spool_disk_bytes", "Bytes of edge spool on disk")
        self._obs_appends = registry.counter(
            "edge_spool_appends_total", "Records appended to the spool")
        self._obs_acked = registry.counter(
            "edge_spool_acked_total", "Spooled records acknowledged")
        self._obs_truncated = registry.counter(
            "edge_spool_truncated_total",
            "Torn tail frames truncated during spool recovery")
        self._recover()
        try:
            self._handle = open(self.path, "ab")
        except OSError as error:
            raise SpoolError(
                f"cannot open spool {path!r}: {error}") from error
        self._publish()

    @classmethod
    def open(cls, path: str, **options) -> "EdgeSpool":
        """Open (and crash-recover) the spool at ``path``."""
        return cls(path, **options)

    # -- recovery ----------------------------------------------------------
    def _recover(self) -> None:
        replay = replay_spool(self.path)
        if replay.torn:
            # A SIGKILL mid-append left a partial frame; cut the file
            # back to the last verified frame boundary so appends resume
            # on clean framing.
            with open(self.path, "r+b") as handle:
                handle.truncate(replay.bytes_read)
            self.torn_truncated = replay.torn
            self._obs_truncated.inc(replay.torn)
        self._acks = replay.acks
        self._pending = {r.sequence: r for r in replay.pending}
        self.last_sequence = replay.last_sequence

    # -- appending ---------------------------------------------------------
    def append(self, record: SpoolRecord) -> None:
        """Durably queue one record for upload; a sequence already
        queued or acknowledged is not queued again."""
        if record.sequence in self._acks or record.sequence in self._pending:
            return
        try:
            self._write(frame_spool_record(record))
        except OSError as error:
            raise SpoolError(f"spool append failed: {error}") from error
        self.appended += 1
        self.last_sequence = max(self.last_sequence, record.sequence)
        self._obs_appends.inc()
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()
        self._pending[record.sequence] = record
        self._publish()

    def _write(self, frame: bytes) -> None:
        # Flushed per frame: a SIGKILL then loses nothing written, while
        # power loss still waits on the batched fsync in sync().
        self._handle.write(frame)
        self._handle.flush()

    def sync(self) -> None:
        """Flush buffered frames and issue the disk barrier."""
        if self._handle.closed:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            pass  # replay-side CRC detects whatever did not land
        self._since_sync = 0

    # -- upload queue ------------------------------------------------------
    @property
    def depth(self) -> int:
        """Records spooled but not yet acknowledged."""
        return len(self._pending)

    def pending(self, limit: int | None = None) -> list[SpoolRecord]:
        """The oldest unacknowledged records, in append order."""
        return list(islice(self._pending.values(), limit))

    def ack(self, sequence: int) -> None:
        """The controller acknowledged the record carrying ``sequence``."""
        if sequence in self._acks:
            return
        try:
            self._write(frame_ack(sequence))
        except OSError:
            pass  # a lost ack frame only costs a deduplicated re-upload
        self._acks.add(sequence)
        self._pending.pop(sequence, None)
        self.last_sequence = max(self.last_sequence, sequence)
        self.acked += 1
        self._obs_acked.inc()
        self._publish()

    # -- maintenance -------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        if self._handle.closed:
            try:
                return os.path.getsize(self.path)
            except OSError:
                return 0
        return self._handle.tell()

    def compact(self) -> None:
        """Rewrite the WAL as the ack watermark plus unacknowledged records.

        Called on clean shutdown so an agent that has been online for a
        long drive does not replay megabytes of acked history next boot.
        The watermark frame keeps the ack state whole: surviving records
        keep their original (high) sequences, so later acks must still
        fold into it, and it alone remembers the sequences a fully acked
        spool has spent.
        """
        self.sync()
        tmp = self.path + ".compact"
        with open(tmp, "wb") as handle:
            handle.write(frame_watermark(self._acks))
            for record in self._pending.values():
                handle.write(frame_spool_record(record))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "ab")
        self._publish()

    def close(self) -> None:
        if not self._handle.closed:
            self.compact()
            self._handle.close()

    def _publish(self) -> None:
        self._obs_depth.set(len(self._pending))
        self._obs_bytes.set(self.size_bytes)
