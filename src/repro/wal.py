"""The write-ahead log under the verdict journal and the edge spool.

A log is a run of frames::

    magic(2) | payload length u32 LE | crc32(payload) u32 LE | payload

The magic names the frame kind; the CRC covers only the payload.  This
module is the one owner of the file: :func:`frame` builds a frame,
:func:`scan` reads a log back verifying every frame, :meth:`Log.open`
recovers a log (cutting a torn tail) and returns the append handle, and
:class:`JsonRecord` is the canonical-JSON codec of the records.
:mod:`repro.serving.journal` and :mod:`repro.edge.spool` each add a
record schema and a delivery policy.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Any, Callable, Iterable, Mapping, TypeVar

from repro.exceptions import ConfigurationError

HEADER = struct.Struct("<2sII")
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


@dataclass
class Replay:
    """What :func:`scan` recovered from a log.

    ``records`` keeps the first occurrence of each ``record_id`` in log
    order; ``duplicates`` counts the later ones.  ``torn`` is 1 when the
    scan stopped at a bad frame, and ``bytes_read`` is the end of the
    last verified frame: the point recovery truncates the file back to.
    """

    records: list = field(default_factory=list)
    duplicates: int = 0
    torn: int = 0
    bytes_read: int = 0

    @property
    def ids(self) -> set:
        """The deduplicated record ids recovered."""
        return {record.record_id for record in self.records}


R = TypeVar("R", bound=Replay)


def scan(path: str, replay: R,
         decoders: Mapping[bytes, Callable[[bytes], Any]]) -> R:
    """Read the log at ``path`` into ``replay``, verifying every frame.

    ``decoders`` maps each magic the log may hold to a payload decoder,
    which returns the record to keep or ``None`` for a frame it folded
    into ``replay`` itself.  The scan stops at the first frame with an
    unknown magic, a short header or payload, a failed CRC, or a payload
    its decoder rejects (``ValueError``, ``KeyError`` or ``TypeError``),
    so a torn frame is never surfaced as data.  A missing file is an
    empty log.
    """
    if not os.path.exists(path):
        return replay
    with open(path, "rb") as handle:
        blob = handle.read()
    seen = set()
    offset = 0
    while offset < len(blob):
        start = offset + HEADER.size
        try:
            magic, length, crc = HEADER.unpack_from(blob, offset)
            payload = blob[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                raise ValueError("short or corrupt frame")
            record = decoders[magic](payload)
        except (struct.error, ValueError, KeyError, TypeError):
            replay.torn += 1
            break
        offset = replay.bytes_read = start + length
        if record is None:
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
    def open(cls, path: str, replay: Callable[[str], R], *,
             fsync_every: int, error: type[Exception]) -> tuple[Log, R]:
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
