"""The write-ahead log under the verdict journal and the edge spool.

A log is a run of frames::

    magic(2) | payload length u32 LE | crc32(payload) u32 LE | payload

The magic names the frame kind; the CRC covers only the payload.  This
module is the one owner of the file: :func:`frame` builds a frame,
:func:`scan` reads a log back verifying every frame, :meth:`Log.open`
recovers a log (cutting a torn tail) and returns the append handle, and
:class:`JsonRecord` is the canonical-JSON codec of the records.
Both logs record deliveries in its ack codec: :class:`AckState`, the
``AK`` frame (one acked sequence) and the ``WM`` frame (a whole ack
state, watermark first), which :func:`scan` folds into its
:class:`Replay`.  :mod:`repro.serving.journal` and
:mod:`repro.edge.spool` each add a record schema and a delivery policy.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Any, Callable, Iterable

from repro.exceptions import ConfigurationError

HEADER = struct.Struct("<2sII")
#: The delivery frames both logs share.  The CRC covers only the payload,
#: so these magics and each log's record magic differ pairwise in at
#: least three bits: no single flipped bit turns a frame of one kind into
#: a valid frame of another.
ACK_MAGIC = b"AK"        #: acknowledged sequences, u64 LE each
WATERMARK_MAGIC = b"WM"  #: the ack watermark, then the acks above it
_SEQUENCE = struct.Struct("<Q")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_COERCE = {"int": int, "float": float, "bool": bool}


def frame(magic: bytes, payload: bytes) -> bytes:
    """One frame: the header, then ``payload``."""
    return HEADER.pack(magic, len(payload), zlib.crc32(payload)) + payload


@cache
def _schema(cls: type) -> tuple[tuple[str, Callable | None], ...]:
    """``(name, coercion)`` per field of a record class, resolved once."""
    return tuple((f.name, _COERCE.get(getattr(f.type, "__name__", f.type)))
                 for f in fields(cls))


class JsonRecord:
    """Canonical-JSON codec for a frozen-dataclass record.

    The payload holds every field under sorted keys with no whitespace.
    Decoding coerces ``int``, ``float`` and ``bool`` fields, gives a
    missing field its default and ignores unknown keys; a payload
    missing a required field raises ``TypeError``.
    """

    def to_payload(self) -> bytes:
        """The canonical JSON wire form (sorted keys, compact)."""
        return _ENCODER.encode({name: getattr(self, name)
                                for name, _ in _schema(type(self))
                                }).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes):
        """The record a :meth:`to_payload` payload encodes."""
        data = json.loads(payload.decode("utf-8"))
        return cls(**{name: data[name] if coerce is None
                      else coerce(data[name])
                      for name, coerce in _schema(cls) if name in data})


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


def frame_ack(sequence: int) -> bytes:
    """The frame recording that ``sequence`` was acknowledged."""
    return frame(ACK_MAGIC, _SEQUENCE.pack(sequence))


def frame_watermark(acks: AckState) -> bytes:
    """One frame carrying the whole ack state: the watermark first."""
    marks = [acks.through, *sorted(acks.extra)]
    return frame(WATERMARK_MAGIC, struct.pack(f"<{len(marks)}Q", *marks))


def _fold_ack_frame(acks: AckState, magic: bytes, payload: bytes) -> None:
    """Fold an ``AK`` or ``WM`` frame into ``acks``; any other frame, or
    a payload not made of whole sequences, raises ``ValueError`` first."""
    if not payload or len(payload) % _SEQUENCE.size:
        raise ValueError("ack payload is not a whole number of sequences")
    marks = struct.unpack(f"<{len(payload) // _SEQUENCE.size}Q", payload)
    if magic == WATERMARK_MAGIC:
        acks.raise_through(marks[0])
    elif magic != ACK_MAGIC:
        raise ValueError(f"unknown frame magic {magic!r}")
    for sequence in marks:
        acks.add(sequence)


@dataclass
class Replay:
    """What :func:`scan` recovered from a log.

    ``records`` keeps the first occurrence of each ``record_id`` in log
    order; ``duplicates`` counts the later ones.  ``torn`` is 1 when the
    scan stopped at a bad frame, and ``bytes_read`` is the end of the
    last verified frame: the point recovery truncates the file back to.
    ``acks`` holds every ``AK`` and ``WM`` frame before that point.
    """

    records: list = field(default_factory=list)
    duplicates: int = 0
    torn: int = 0
    bytes_read: int = 0
    acks: AckState = field(default_factory=AckState)

    @property
    def ids(self) -> set:
        """The deduplicated record ids recovered."""
        return {record.record_id for record in self.records}


def scan(path: str, magic: bytes, decode: Callable[[bytes], Any]) -> Replay:
    """Read the log at ``path`` back, verifying every frame.

    ``decode`` turns the payload of a ``magic`` frame into a record; the
    ``AK`` and ``WM`` frames fold into :attr:`Replay.acks`.  The scan
    stops at the first frame with an unknown magic, a short header or
    payload, a failed CRC, or a payload that does not decode
    (``ValueError``, ``KeyError`` or ``TypeError``), so a torn frame is
    never surfaced as data.  A missing file is an empty log.
    """
    replay = Replay()
    if not os.path.exists(path):
        return replay
    with open(path, "rb") as handle:
        blob = handle.read()
    seen = set()
    offset = 0
    while offset < len(blob):
        start = offset + HEADER.size
        try:
            kind, length, crc = HEADER.unpack_from(blob, offset)
            payload = blob[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                raise ValueError("short or corrupt frame")
            record = (decode(payload) if kind == magic
                      else _fold_ack_frame(replay.acks, kind, payload))
        except (struct.error, ValueError, KeyError, TypeError):
            replay.torn += 1
            break
        offset = replay.bytes_read = start + length
        if record is None:  # an ack frame, folded
            continue
        if record.record_id in seen:
            replay.duplicates += 1
        else:
            seen.add(record.record_id)
            replay.records.append(record)
    return replay


class Log:
    """The append handle of one log file.

    Every frame is flushed to the OS as it is written, so a crash of the
    process loses nothing written.  :attr:`sync_due` turns true once
    ``fsync_every`` record frames have been written since the last
    barrier, and the owner then takes the barrier with :meth:`sync`, so
    power loss costs at most one batch.  Use :meth:`open` to construct.
    """

    def __init__(self, path: str, handle, fsync_every: int) -> None:
        self.path = path
        self.fsync_every = fsync_every
        self._handle = handle
        self._since_sync = 0

    @classmethod
    def open(cls, path: str, replay: Callable[[str], Replay], *,
             fsync_every: int, error: type[Exception]) -> tuple[Log, Replay]:
        """Recover the log at ``path`` and open it for append.

        ``replay`` scans the file; a torn tail it reports is truncated
        back to the last verified frame, so appends resume on clean
        framing instead of behind a tear that would hide them.  Returns
        the handle and the replay.  An ``OSError`` is raised as
        ``error``.
        """
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        path = str(path)
        try:
            recovered = replay(path)
            if recovered.torn:
                with open(path, "r+b") as handle:
                    handle.truncate(recovered.bytes_read)
            return cls(path, open(path, "ab"), int(fsync_every)), recovered
        except OSError as exc:
            raise error(f"cannot open {path!r}: {exc}") from exc

    def write(self, frame: bytes, *, record: bool = True) -> None:
        """Append ``frame`` and flush it to the OS; raises ``OSError``.
        Only record frames count toward the next barrier."""
        self._handle.write(frame)
        self._handle.flush()
        self._since_sync += record

    @property
    def sync_due(self) -> bool:
        """Whether a batch of ``fsync_every`` record frames is unsynced."""
        return self._since_sync >= self.fsync_every

    def sync(self) -> None:
        """Flush and fsync; raises ``OSError``.  A failed barrier still
        starts a new batch."""
        if self._handle.closed:
            return
        self._since_sync = 0
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @property
    def size_bytes(self) -> int:
        """Bytes in the log file, every written frame included."""
        if not self._handle.closed:
            return self._handle.tell()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def rewrite(self, frames: Iterable[bytes]) -> None:
        """Replace the log with ``frames``: write and fsync a sibling
        file, ``os.replace`` it over the log and reopen for append, so a
        crash leaves either the old log or the new one."""
        tmp = self.path + ".compact"
        with open(tmp, "wb") as handle:
            handle.writelines(frames)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "ab")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._handle.closed

    def close(self) -> None:
        """Close the file; the caller syncs first."""
        self._handle.close()
