"""On-device store-and-forward spool: verdicts survive a dead uplink.

The edge agent's contract mirrors the serving journal's: a verdict the
device produced is never *silently* lost — not when the uplink is
blackholed for a minute, not when the agent process is SIGKILLed
mid-append.  The spool is a :mod:`repro.wal` log, like
:mod:`repro.serving.journal`, so framing, verifying replay, torn-tail
truncation on open, the flush per frame and the batched fsync are the
log's.  The spool adds its policy:

* every verdict (and every evidence clip) is framed to disk *before* an
  upload is attempted;
* controller acks are **ack frames** in the same log, in the ack codec
  :mod:`repro.wal` keeps for both logs.  Recovery rebuilds the ack state
  from the frames it replays, and only unacknowledged records re-enter
  the upload queue (the controller dedups by record id, so a torn ack
  frame costs a duplicate upload, never a lost record);
* :meth:`EdgeSpool.compact` rewrites the log as one **watermark frame**
  — every sequence up to the contiguous ack watermark, plus the
  out-of-order acks above it — followed by the pending records, so later
  acks still fold into the watermark and the acked history is not lost;
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

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from repro import wal
from repro.exceptions import SpoolError
from repro.obs.metrics import MetricsRegistry, get_registry

#: The frame magic of a :class:`SpoolRecord`, canonical JSON.  Acks are
#: the log's ``AK`` and ``WM`` frames (:mod:`repro.wal`).
MAGIC = b"ES"

#: Record kinds the spool carries.
KIND_VERDICT = "verdict"
KIND_CLIP = "clip"


@dataclass(frozen=True)
class SpoolRecord(wal.JsonRecord):
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
        return wal.JsonRecord.to_payload(self)


def frame_spool_record(record: SpoolRecord) -> bytes:
    """One on-disk frame: header + payload, CRC over the payload."""
    return wal.frame(MAGIC, record.to_payload())


def replay_spool(path: str) -> wal.Replay:
    """Crash-safe replay (:func:`repro.wal.scan`): record frames are
    deduplicated by record id, and ack and watermark frames accumulate
    into :attr:`~repro.wal.Replay.acks`."""
    return wal.scan(path, MAGIC, SpoolRecord.from_payload)


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
        self._log, replay = wal.Log.open(
            path, replay_spool, fsync_every=fsync_every, error=SpoolError)
        self.path = self._log.path
        self.torn_truncated = replay.torn
        self.acked = 0
        self._acks = replay.acks
        #: Highest sequence ever spooled or acked; seed new sequences
        #: past this so a restart never reuses one.
        self.last_sequence = max(self._acks.high, max(
            (r.sequence for r in replay.records), default=0))
        #: Unacknowledged records by sequence, in append order.
        self._pending = {r.sequence: r for r in replay.records
                         if r.sequence not in self._acks}
        registry = registry or get_registry()
        self._obs_depth = registry.gauge(
            "edge_spool_depth", "Spooled records awaiting upload ack")
        self._obs_bytes = registry.gauge(
            "edge_spool_disk_bytes", "Bytes of edge spool on disk")
        self._obs_appends = registry.counter(
            "edge_spool_appends_total", "Records appended to the spool")
        self._obs_acked = registry.counter(
            "edge_spool_acked_total", "Spooled records acknowledged")
        registry.counter(
            "edge_spool_truncated_total",
            "Torn tail frames truncated during spool recovery"
        ).inc(replay.torn)
        self._publish()

    @classmethod
    def open(cls, path: str, **options) -> "EdgeSpool":
        """Open (and crash-recover) the spool at ``path``."""
        return cls(path, **options)

    # -- appending ---------------------------------------------------------
    def append(self, record: SpoolRecord) -> None:
        """Durably queue one record for upload; a sequence already
        queued or acknowledged is not queued again."""
        if record.sequence in self._acks or record.sequence in self._pending:
            return
        try:
            self._log.write(frame_spool_record(record))
        except OSError as error:
            raise SpoolError(f"spool append failed: {error}") from error
        self.last_sequence = max(self.last_sequence, record.sequence)
        self._obs_appends.inc()
        if self._log.sync_due:
            self.sync()
        self._pending[record.sequence] = record
        self._publish()

    def sync(self) -> None:
        """Flush buffered frames and issue the disk barrier."""
        try:
            self._log.sync()
        except OSError:
            pass  # replay-side CRC detects whatever did not land

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
            self._log.write(wal.frame_ack(sequence), record=False)
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
        """Bytes of spool on disk, every written frame included."""
        return self._log.size_bytes

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
        self._log.rewrite([wal.frame_watermark(self._acks),
                           *map(frame_spool_record, self._pending.values())])
        self._publish()

    def close(self) -> None:
        """Compact and close the spool."""
        if not self._log.closed:
            self.compact()
            self._log.close()

    def _publish(self) -> None:
        self._obs_depth.set(len(self._pending))
        self._obs_bytes.set(self.size_bytes)
