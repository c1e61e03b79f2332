"""Edge spool: CRC framing, ack frames, torn-tail truncation, SIGKILL."""

import os
import signal
import subprocess
import sys
import tempfile
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import EdgeSpool, SpoolRecord, replay_spool
from repro.edge.spool import (
    ACK_MAGIC,
    MAGIC,
    WATERMARK_MAGIC,
    frame_spool_record,
)
from repro.exceptions import ConfigurationError, SpoolError
from repro.obs.metrics import MetricsRegistry

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))


def record(sequence, kind="verdict", payload=""):
    return SpoolRecord(agent_id="edge-0", sequence=sequence,
                       timestamp=0.25 * sequence, kind=kind,
                       predicted=sequence % 5, confidence=0.8,
                       model_version=1, payload=payload)


def test_payload_round_trip_preserves_every_field():
    original = SpoolRecord(agent_id="edge-3", sequence=17, timestamp=4.25,
                           kind="clip", predicted=2, confidence=0.5,
                           degraded=True, model_version=4,
                           payload="deadbeef")
    assert SpoolRecord.from_payload(original.to_payload()) == original


def test_clip_wire_size_scales_with_evidence():
    small = record(1, kind="clip", payload="00" * 8)
    large = record(2, kind="clip", payload="00" * 4096)
    assert large.wire_size > small.wire_size + 4000


def test_append_ack_and_depth(tmp_path):
    spool = EdgeSpool.open(str(tmp_path / "s.wal"))
    for i in range(1, 5):
        spool.append(record(i))
    assert spool.depth == 4
    assert [r.sequence for r in spool.pending(2)] == [1, 2]
    spool.ack(2)
    spool.ack(1)
    assert [r.sequence for r in spool.pending()] == [3, 4]
    spool.ack(2)  # idempotent
    assert spool.acked == 2
    spool.close()


def test_reopen_resumes_only_unacked(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 6):
        spool.append(record(i))
    spool.ack(1)
    spool.ack(3)  # out-of-order ack waits above the watermark
    spool.sync()
    del spool  # simulate a crash: no close(), no compaction
    reopened = EdgeSpool.open(path)
    assert [r.sequence for r in reopened.pending()] == [2, 4, 5]
    reopened.close()


def test_torn_tail_is_truncated_in_place(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 4):
        spool.append(record(i))
    spool.close()
    clean_size = os.path.getsize(path)
    frame = frame_spool_record(record(4))
    with open(path, "ab") as handle:
        handle.write(frame[: len(frame) // 2])  # SIGKILL mid-write
    reopened = EdgeSpool.open(path)
    assert reopened.torn_truncated == 1
    assert os.path.getsize(path) == clean_size
    # Appends resume on a clean frame boundary after the cut.
    reopened.append(record(4))
    reopened.sync()
    replay = replay_spool(path)
    assert [r.sequence for r in replay.records] == [1, 2, 3, 4]
    assert replay.torn == 0
    reopened.close()


def test_replay_dedups_by_record_id(tmp_path):
    path = str(tmp_path / "s.wal")
    with open(path, "wb") as handle:
        handle.write(frame_spool_record(record(1)))
        handle.write(frame_spool_record(record(2)))
        handle.write(frame_spool_record(record(1)))  # crash-replayed
    replay = replay_spool(path)
    assert [r.sequence for r in replay.records] == [1, 2]
    assert replay.duplicates == 1


def test_replay_rejects_corrupt_crc(tmp_path):
    path = str(tmp_path / "s.wal")
    with open(path, "wb") as handle:
        handle.write(frame_spool_record(record(1)))
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)
    replay = replay_spool(path)
    assert replay.records == [] and replay.torn == 1


def test_last_sequence_recovers_across_reopen(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    assert spool.last_sequence == 0
    for i in range(1, 6):
        spool.append(record(i))
    spool.ack(5)  # out-of-order: the high-water ack sits in the extra set
    assert spool.last_sequence == 5
    spool.sync()
    del spool  # crash: no close(), no compaction
    reopened = EdgeSpool.open(path)
    assert reopened.last_sequence == 5
    reopened.close()


def test_last_sequence_survives_compaction_of_fully_acked_spool(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 4):
        spool.append(record(i))
    for i in range(1, 4):
        spool.ack(i)
    spool.close()  # compacts: the WAL itself is now empty
    reopened = EdgeSpool.open(path)
    # Only the watermark frame knows sequences 1-3 ever existed.
    assert reopened.last_sequence == 3
    assert reopened.pending() == []
    reopened.close()


def test_compact_drops_acked_history(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 9):
        spool.append(record(i))
    for i in range(1, 7):
        spool.ack(i)
    spool.compact()
    replay = replay_spool(path)
    assert [r.sequence for r in replay.records] == [7, 8]
    assert spool.depth == 2
    spool.close()


def test_compact_preserves_ack_watermark(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 9):
        spool.append(record(i))
    for i in (1, 2, 3, 4, 5, 7):
        spool.ack(i)
    spool.compact()
    assert [r.sequence for r in replay_spool(path).records] == [6, 8]
    spool.ack(6)
    spool.ack(8)
    # Surviving records keep their original sequences, so post-compaction
    # acks must still fold into the contiguous watermark — through the
    # out-of-order ack of 7 the watermark frame carried — instead of
    # accreting above it forever.
    acks = replay_spool(path).acks
    assert (acks.through, acks.extra) == (8, set())
    del spool  # crash: the ack frames alone carry the state
    reopened = EdgeSpool.open(path)
    assert reopened.pending() == [] and reopened.last_sequence == 8
    reopened.close()


def test_torn_ack_frame_degrades_to_reupload(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    spool.append(record(1))
    spool.ack(1)
    del spool
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 3)  # SIGKILL mid-ack
    reopened = EdgeSpool.open(path)
    # A torn ack frame costs a deduplicated re-upload, never a lost record.
    assert reopened.torn_truncated == 1
    assert [r.sequence for r in reopened.pending()] == [1]
    reopened.close()


def test_legacy_cursor_sidecar_is_ignored(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    spool.append(record(1))
    del spool
    with open(path + ".cursor", "w", encoding="utf-8") as handle:
        handle.write('{"acked_through": 1, "extra": []}')
    reopened = EdgeSpool.open(path)
    # Acks live in the log now; the old sidecar at most re-uploads.
    assert [r.sequence for r in reopened.pending()] == [1]
    reopened.close()


def test_frame_magics_differ_in_at_least_three_bits():
    for a, b in combinations((MAGIC, ACK_MAGIC, WATERMARK_MAGIC), 2):
        flipped = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        assert bin(flipped).count("1") >= 3


def test_invalid_config_and_unwritable_path():
    with pytest.raises(ConfigurationError):
        EdgeSpool.open("/tmp/x.wal", fsync_every=0)
    with pytest.raises(SpoolError):
        EdgeSpool.open("/nonexistent-dir/spool.wal")


def test_sigkill_mid_append_truncates_and_resumes(tmp_path):
    """An agent SIGKILLed mid-append must leave a spool whose torn tail
    is both detected and truncated on the next open, with the surviving
    prefix gapless and duplicate-free."""
    path = str(tmp_path / "crash.wal")
    writer = (
        "import sys; sys.path.insert(0, sys.argv[2])\n"
        "from repro.edge.spool import EdgeSpool, SpoolRecord\n"
        "spool = EdgeSpool.open(sys.argv[1], fsync_every=4)\n"
        "i = 0\n"
        "while True:\n"
        "    i += 1\n"
        "    spool.append(SpoolRecord(agent_id='edge-0', sequence=i,\n"
        "                             timestamp=0.1 * i, predicted=1))\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", writer, path, SRC])
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > 4096:
                break
            time.sleep(0.01)
        else:
            pytest.fail("spool writer never produced data")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    raw = replay_spool(path)
    assert raw.torn <= 1  # at most the one frame the kill interrupted
    spool = EdgeSpool.open(path)
    # Recovery truncated exactly the torn frame (if any) and queued the
    # gapless surviving prefix for upload.
    assert spool.torn_truncated == raw.torn
    assert os.path.getsize(path) == raw.bytes_read
    sequences = [r.sequence for r in spool.pending()]
    assert len(sequences) > 0
    assert sequences == list(range(1, len(sequences) + 1))
    clean = replay_spool(path)
    assert clean.torn == 0 and clean.duplicates == 0
    spool.close()


def test_sigkill_loses_no_appended_record_or_ack(tmp_path):
    """Frames reach the OS as they are written: a SIGKILL before the
    first fsync batch fills must not lose an append or an ack."""
    path = str(tmp_path / "kill.wal")
    writer = (
        "import os, signal, sys; sys.path.insert(0, sys.argv[2])\n"
        "from repro.edge.spool import EdgeSpool, SpoolRecord\n"
        "spool = EdgeSpool.open(sys.argv[1])\n"
        "for i in (1, 2, 3):\n"
        "    spool.append(SpoolRecord(agent_id='edge-0', sequence=i,\n"
        "                             timestamp=0.1 * i))\n"
        "spool.ack(2)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run([sys.executable, "-c", writer, path, SRC],
                          timeout=60)
    assert proc.returncode == -signal.SIGKILL
    replay = replay_spool(path)
    assert [r.sequence for r in replay.records] == [1, 2, 3]
    assert [r.sequence for r in replay.pending] == [1, 3]
    assert replay.torn == 0


# -- crash contract: every cut and bit flip replays a frame prefix --------

_OPS = st.lists(st.one_of(
    st.just(("append", 0)),
    st.tuples(st.just("append"), st.integers(1, 3)),   # re-append
    st.tuples(st.just("ack"), st.integers(0, 40)),
    st.just(("compact", 0)),
    st.just(("reopen", 0))), max_size=30)


def _state(frames):
    """What a log made of ``frames`` must recover: the pending sequences
    (records minus acks, in log order), the acked set and the highest
    sequence the frames show."""
    records, acked = {}, set()
    for _, kind, value in frames:
        if kind == "record":
            records.setdefault(value, None)
        else:
            acked |= value
    pending = [s for s in records if s not in acked]
    return pending, acked, max([*records, *acked], default=0)


def _drive(spool, path, ops, registry):
    """Apply ``ops``, checking the spool against a model of its log;
    return the spool and the log as ``(end_offset, kind, value)`` frames,
    where an ack or watermark frame's value is the set it acks."""
    frames = []
    for op, arg in ops:
        pending, acked, _ = _state(frames)
        if op == "append":
            sequence = max(1, spool.last_sequence + 1 - arg)
            spool.append(record(sequence))
            if sequence not in pending and sequence not in acked:
                frames.append((spool.size_bytes, "record", sequence))
        elif op == "ack":
            sequence = pending[arg % len(pending)] if pending else arg + 1
            spool.ack(sequence)
            if sequence not in acked:
                frames.append((spool.size_bytes, "ack", {sequence}))
        elif op == "compact":
            spool.compact()
            kept = [len(frame_spool_record(r)) for r in spool.pending()]
            end = spool.size_bytes - sum(kept)
            frames = [(end, "ack", acked)]
            for sequence, size in zip(pending, kept):
                end += size
                frames.append((end, "record", sequence))
        else:
            del spool  # crash: no close(), no compaction
            spool = EdgeSpool.open(path, registry=registry)
            assert spool.torn_truncated == 0
        assert spool.size_bytes == (frames[-1][0] if frames else 0)
        assert [r.sequence for r in spool.pending()] == _state(frames)[0]
    return spool, frames


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, cut=st.integers(0, 1 << 20), flip=st.integers(0, 1 << 23))
def test_every_cut_and_bit_flip_recovers_the_surviving_prefix(ops, cut,
                                                              flip):
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "s.wal")
        spool, frames = _drive(EdgeSpool.open(path, registry=registry),
                               path, ops, registry)
        del spool
        with open(path, "rb") as handle:
            blob = handle.read()
        boundaries = [0] + [end for end, _, _ in frames]
        assert boundaries[-1] == len(blob)

        damaged = [(blob[:end], k) for k, end in enumerate(boundaries)]
        cut %= len(blob) + 1
        whole = max(k for k, end in enumerate(boundaries) if end <= cut)
        damaged.append((blob[:cut], whole))
        if blob:
            bit = flip % (8 * len(blob))
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            whole = max(k for k, end in enumerate(boundaries)
                        if end <= bit // 8)
            damaged.append((bytes(flipped), whole))

        copy = os.path.join(workdir, "copy.wal")
        for data, whole in damaged:
            with open(copy, "wb") as handle:
                handle.write(data)
            pending, _, high = _state(frames[:whole])
            reopened = EdgeSpool.open(copy, registry=registry)
            assert [r.sequence for r in reopened.pending()] == pending
            assert reopened.last_sequence >= high
            assert os.path.getsize(copy) == boundaries[whole]
            nxt = reopened.last_sequence + 1
            reopened.append(record(nxt))
            del reopened
            replay = replay_spool(copy)
            assert replay.torn == 0
            assert [r.sequence for r in replay.pending] == pending + [nxt]
