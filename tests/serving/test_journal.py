"""Verdict journal: framing, crash-safe replay, fsync batching,
disk-full degradation, and store-and-forward delivery."""

import errno
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import JournalError
from repro.serving import (
    StoreAndForwardSink,
    VerdictJournal,
    VerdictRecord,
    replay_journal,
)
from repro.serving.journal import KIND_DEFERRED, frame_record


def record(sequence, session_id="drv-0", kind="verdict"):
    return VerdictRecord(session_id=session_id, sequence=sequence,
                         timestamp=0.25 * sequence, kind=kind,
                         predicted=sequence % 5, confidence=0.9,
                         model_key="base")


def test_round_trip(tmp_path):
    path = str(tmp_path / "journal.wal")
    journal = VerdictJournal(path, fsync_every=2)
    originals = [record(i) for i in range(5)]
    for item in originals:
        journal.append(item)
    journal.close()
    replay = replay_journal(path)
    assert replay.records == originals
    assert replay.torn == 0
    assert replay.duplicates == 0
    assert replay.bytes_read == os.path.getsize(path)


def test_payload_round_trip_preserves_every_field():
    original = VerdictRecord(session_id="drv-3", sequence=17,
                             timestamp=4.25, kind=KIND_DEFERRED,
                             predicted=2, confidence=0.5, degraded=True,
                             model_key="privacy-high", reason="shard died")
    assert VerdictRecord.from_payload(original.to_payload()) == original


def test_fsync_batches(tmp_path, monkeypatch):
    syncs = []
    monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd))
    journal = VerdictJournal(str(tmp_path / "j.wal"), fsync_every=4)
    for i in range(10):
        journal.append(record(i))
    # 10 appends at fsync_every=4 -> barriers after records 4 and 8.
    assert len(syncs) == 2
    journal.close()
    assert len(syncs) == 3  # close syncs the tail


def test_replay_dedups_by_driver_window_id(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    journal.append(record(1))
    journal.append(record(2))
    journal.append(record(1))  # retried window: same (driver, window) id
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [1, 2]
    assert replay.duplicates == 1
    assert replay.ids == {("drv-0", 1), ("drv-0", 2)}


def test_replay_drops_torn_tail(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    for i in range(3):
        journal.append(record(i))
    journal.close()
    frame = frame_record(record(3))
    with open(path, "ab") as handle:
        handle.write(frame[:len(frame) // 2])  # SIGKILL mid-write
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]
    assert replay.torn == 1


def test_replay_stops_at_corrupt_crc(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    journal.append(record(0))
    journal.close()
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # flip one payload byte; CRC must catch it
    with open(path, "wb") as handle:
        handle.write(blob)
    replay = replay_journal(path)
    assert replay.records == []
    assert replay.torn == 1


def test_replay_of_missing_file_is_empty(tmp_path):
    replay = replay_journal(str(tmp_path / "never-written.wal"))
    assert replay.records == [] and replay.torn == 0


def test_unwritable_path_raises():
    with pytest.raises(JournalError):
        VerdictJournal("/nonexistent-dir/journal.wal")


def test_disk_full_overflows_to_memory_and_drains(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=1)
    journal.append(record(0))
    journal.simulate_disk_full(True)
    assert not journal.append(record(1))
    assert not journal.append(record(2))
    assert journal.overflow_depth == 2
    assert journal.overflowed == 2
    on_disk = journal.size_bytes
    journal.simulate_disk_full(False)  # space returns: overflow drains
    assert journal.overflow_depth == 0
    assert journal.size_bytes > on_disk
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]


def test_drain_tripping_disk_full_keeps_new_record_in_order(tmp_path,
                                                            monkeypatch):
    """When the overflow drain inside append() trips disk-full, the new
    record must park behind the still-buffered older records — never
    reach the disk ahead of them."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=100)
    journal.simulate_disk_full(True)
    assert not journal.append(record(0))  # parked in overflow
    journal._disk_full = False            # space seems to return...
    real_write = journal._write
    tripped = []

    def flaky(item):
        if not tripped:                   # ...but the drain write trips
            tripped.append(item)
            journal._disk_full = True
            return False
        return real_write(item)

    monkeypatch.setattr(journal, "_write", flaky)
    assert not journal.append(record(1))  # must park, not jump to disk
    assert journal.overflow_depth == 2
    journal.simulate_disk_full(False)     # full recovery drains in order
    journal.close()
    assert [r.sequence for r in replay_journal(path).records] == [0, 1]


def test_sync_failure_repatriates_acked_records_to_overflow(tmp_path,
                                                            monkeypatch):
    """Records append() acknowledged but the barrier never covered must
    move to the overflow buffer on fsync failure, not silently ride in a
    userspace buffer the kernel may have dropped."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=100)
    for i in range(3):
        assert journal.append(record(i))  # acked, barrier still pending

    def broken(fd):
        raise OSError(5, "I/O error")

    monkeypatch.setattr("repro.serving.journal.os.fsync", broken)
    journal.sync()
    assert journal.disk_full
    assert journal.overflow_depth == 3    # acked records not abandoned
    monkeypatch.undo()                    # the disk heals
    journal.simulate_disk_full(False)
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]
    # flush() had landed the originals, so the rewrite duplicates them;
    # replay dedups by (driver, window) id exactly as documented.
    assert replay.duplicates == 3


def test_sigkill_mid_write_leaves_replayable_journal(tmp_path):
    """A shard process SIGKILLed mid-journal-write must leave a journal
    that replays without duplicates and without surfacing torn data."""
    path = str(tmp_path / "crash.wal")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    writer = (
        "import sys; sys.path.insert(0, sys.argv[2])\n"
        "from repro.serving.journal import VerdictJournal, VerdictRecord\n"
        "journal = VerdictJournal(sys.argv[1], fsync_every=4)\n"
        "i = 0\n"
        "while True:\n"
        "    journal.append(VerdictRecord(session_id='drv-0', sequence=i,\n"
        "                                 timestamp=0.1 * i, predicted=1))\n"
        "    i += 1\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", writer, path,
                             os.path.abspath(src)])
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > 4096:
                break
            time.sleep(0.01)
        else:
            pytest.fail("journal writer never produced data")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    replay = replay_journal(path)
    # Whatever survived must be a clean, gapless, duplicate-free prefix.
    assert len(replay.records) > 0
    sequences = [r.sequence for r in replay.records]
    assert sequences == list(range(len(sequences)))
    assert replay.duplicates == 0
    assert replay.torn <= 1  # at most the one frame the kill interrupted


def test_sigkill_before_first_fsync_keeps_every_append(tmp_path):
    """Frames reach the OS as they are appended: a SIGKILL before the
    first fsync batch fills must not lose a record append() accepted."""
    path = str(tmp_path / "kill.wal")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    writer = (
        "import os, signal, sys; sys.path.insert(0, sys.argv[2])\n"
        "from repro.serving.journal import VerdictJournal, VerdictRecord\n"
        "journal = VerdictJournal(sys.argv[1])\n"
        "for i in range(3):\n"
        "    journal.append(VerdictRecord(session_id='drv-0', sequence=i,\n"
        "                                 timestamp=0.1 * i))\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run([sys.executable, "-c", writer, path,
                           os.path.abspath(src)], timeout=60)
    assert proc.returncode == -signal.SIGKILL
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]
    assert replay.torn == 0


def test_failed_flush_is_a_failed_append(tmp_path):
    """A flush that hits ENOSPC parks the record in the overflow buffer
    exactly like a failed write; it drains once the disk recovers."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=100)
    real = journal._handle

    class FullDisk:
        def __getattr__(self, name):
            return getattr(real, name)

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    journal._handle = FullDisk()
    assert not journal.append(record(0))
    assert journal.disk_full and journal.overflow_depth == 1
    journal._handle = real
    journal.simulate_disk_full(False)
    assert journal.overflow_depth == 0
    journal.close()
    # The unflushed bytes may land beside the rewrite; replay dedups.
    assert [r.sequence for r in replay_journal(path).records] == [0]


# -- store-and-forward sink -----------------------------------------------


def test_sink_delivers_in_order(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    for i in range(3):
        sink.offer(record(i))
    assert sink.pump(0.0) == 3
    assert [r.sequence for r in sink.delivered] == [0, 1, 2]
    assert sink.pending == 0


def test_sink_buffers_through_blackhole_and_drains(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    sink.offer(record(0))
    sink.pump(0.0)
    sink.blackholed = True
    for i in range(1, 4):
        sink.offer(record(i))
        sink.pump(float(i))
    assert sink.pending == 3
    assert sink.delivery_failures >= 3
    assert len(sink.delivered) == 1
    sink.blackholed = False
    assert sink.pump(5.0) == 3  # backlog drains in order on reconnect
    assert [r.sequence for r in sink.delivered] == [0, 1, 2, 3]


def test_sink_never_double_delivers(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    downstream: list[VerdictRecord] = []
    sink = StoreAndForwardSink(journal, downstream.append)
    sink.offer(record(7))
    sink.pump(0.0)
    sink.offer(record(7))  # retried through a second shard
    sink.pump(1.0)
    assert len(downstream) == 1
    assert sink.duplicates_suppressed == 1


def test_sink_dedups_while_pending(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    sink.blackholed = True
    sink.offer(record(7))
    sink.offer(record(7))
    assert sink.pending == 1
    sink.blackholed = False
    sink.pump(0.0)
    assert len(sink.delivered) == 1


def test_sink_failing_downstream_is_a_fault_barrier(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    calls = []

    def flaky(item):
        calls.append(item)
        if len(calls) == 1:
            raise ConnectionError("sink down")

    sink = StoreAndForwardSink(journal, flaky)
    sink.offer(record(0))
    assert sink.pump(0.0) == 0  # first attempt raises -> stays pending
    assert sink.pending == 1
    assert sink.pump(1.0) == 1  # retried on the next pump
    assert [r.sequence for r in sink.delivered] == [0]
