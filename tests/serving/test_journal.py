"""Verdict journal: framing, crash-safe replay, torn-tail truncation,
fsync batching, disk-full degradation, and store-and-forward delivery
that resumes from the journal after a crash."""

import errno
import itertools
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import JournalError
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    StoreAndForwardSink,
    VerdictJournal,
    VerdictRecord,
    audit_ledger,
    replay_journal,
)
from repro.serving.journal import KIND_DEFERRED, frame_record
from tests.wal_damage import damaged_copies


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


def test_replay_of_missing_file_is_empty(tmp_path):
    replay = replay_journal(str(tmp_path / "never-written.wal"))
    assert replay.records == [] and replay.torn == 0


def test_reopen_truncates_torn_tail_so_later_appends_replay(tmp_path):
    """A crash mid-append leaves a partial final frame.  Reopening must
    cut it, or every later append lands behind the tear where replay
    never reaches it."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    for i in range(3):
        journal.append(record(i))
    journal.close()
    intact = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(frame_record(record(3))[:20])  # SIGKILL mid-write
    reopened = VerdictJournal(path)
    assert reopened.torn_truncated == 1
    assert reopened.size_bytes == intact
    for i in range(3, 9):
        reopened.append(record(i))
    reopened.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == list(range(9))
    assert replay.torn == 0


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

    monkeypatch.setattr("repro.wal.os.fsync", broken)
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
    real = journal._log._handle

    class FullDisk:
        def __getattr__(self, name):
            return getattr(real, name)

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    journal._log._handle = FullDisk()
    assert not journal.append(record(0))
    assert journal.disk_full and journal.overflow_depth == 1
    journal._log._handle = real
    journal.simulate_disk_full(False)
    assert journal.overflow_depth == 0
    journal.close()
    # The unflushed bytes may land beside the rewrite; replay dedups.
    assert [r.sequence for r in replay_journal(path).records] == [0]


class FlakyDisk:
    """A journal's file handle whose ``write`` or ``flush`` raises ENOSPC
    once for each time its name is armed in ``fail``."""

    def __init__(self, real):
        self._real = real
        self.fail: list[str] = []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def _trip(self, name):
        if name in self.fail:
            self.fail.remove(name)
            raise OSError(errno.ENOSPC, "No space left on device")

    def write(self, data):
        self._trip("write")
        return self._real.write(data)

    def flush(self):
        self._trip("flush")
        self._real.flush()


def test_transient_write_error_drains_on_the_next_append(tmp_path):
    """One ENOSPC from flush() parks a record; the disk is healthy again
    at the next append, which must drain the parked record first, so
    the journal does not stay in memory for the rest of the process."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    disk = journal._log._handle = FlakyDisk(journal._log._handle)
    reached_disk = []
    for i in range(20):
        if i == 1:
            disk.fail.append("flush")
        reached_disk.append(journal.append(record(i)))
    assert reached_disk[1] is False
    assert all(reached_disk[2:])
    assert not journal.disk_full and journal.overflow_depth == 0
    journal.close()
    assert [r.sequence for r in replay_journal(path).records] == \
        list(range(20))


def test_close_drains_a_record_parked_by_the_last_append(tmp_path):
    """The write error hits the final append and the disk recovers:
    close() must write the parked record, not drop it."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    journal.append(record(0))
    disk = journal._log._handle = FlakyDisk(journal._log._handle)
    disk.fail.append("write")
    assert not journal.append(record(1))
    assert journal.disk_full and journal.overflow_depth == 1
    journal.close()
    assert [r.sequence for r in replay_journal(path).records] == [0, 1]


def test_record_parks_behind_a_failed_retry(tmp_path):
    """When retrying a parked record fails again but the disk takes the
    very next write, the new record must still queue behind it."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    journal.append(record(0))
    disk = journal._log._handle = FlakyDisk(journal._log._handle)
    disk.fail.append("write")
    assert not journal.append(record(1))
    disk.fail.append("write")             # the retry of record 1 fails
    assert not journal.append(record(2))  # parks, though its write would land
    assert journal.overflow_depth == 2
    assert journal.append(record(3))
    journal.close()
    assert [r.sequence for r in replay_journal(path).records] == [0, 1, 2, 3]


def test_close_with_records_stuck_in_memory_raises(tmp_path):
    """close() must not return as if parked records were durable."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    journal.append(record(0))
    journal.simulate_disk_full(True)
    journal.append(record(1))
    journal.append(record(2))
    with pytest.raises(JournalError, match="2 records"):
        journal.close()
    assert [r.sequence for r in replay_journal(path).records] == [0]


# -- crash contract: every cut and bit flip replays a frame prefix --------

def _dedup(records):
    """First occurrence of each (driver, window) id, in log order."""
    seen, kept = set(), []
    for item in records:
        if item.record_id not in seen:
            seen.add(item.record_id)
            kept.append(item)
    return kept


def _ledger(frames):
    """The distinct records ``frames`` hold, in log order, and how many of
    them the last watermark among the frames counts delivered."""
    records = _dedup(value for _, kind, value in frames if kind == "record")
    through = max((value for _, kind, value in frames if kind == "mark"),
                  default=0)
    return records, through


_OPS = st.lists(st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 4)),
    st.tuples(st.just("rewrite"), st.integers(1, 4)),
    st.tuples(st.just("pump"), st.integers(0, 3)),
    st.just(("crash", 0))), max_size=30)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, fsync_every=st.integers(1, 8),
       cut=st.integers(0, 1 << 20), flip=st.integers(0, 1 << 23))
def test_every_cut_and_bit_flip_recovers_the_intact_prefix(
        ops, fsync_every, cut, flip):
    registry = MetricsRegistry()
    fresh = itertools.count()
    budget = [0]

    def downstream(item):
        if budget[0] <= 0:
            raise ConnectionError("downstream refuses")
        budget[0] -= 1

    def open_sink(path):
        journal = VerdictJournal(path, fsync_every=fsync_every,
                                 registry=registry)
        return StoreAndForwardSink(journal, downstream, registry=registry)

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "j.wal")
        sink = open_sink(path)
        offered = []
        frames = []  # (end offset, "record" | "mark", record | through)
        for op, arg in ops:
            records, through = _ledger(frames)
            if op == "offer":
                # 0 offers a new window; k > 0 re-offers the record
                # offered k offers back, as a retried dispatch does.
                item = (offered[-arg] if 0 < arg <= len(offered)
                        else record(next(fresh), session_id=f"drv-{arg}"))
                offered.append(item)
                sink.offer(item)
                if item not in records:
                    frames.append((sink.journal.size_bytes, "record", item))
            elif op == "rewrite":
                # The journal writes a record it holds again, as it does
                # after a failed barrier; replay keeps the first frame.
                if arg <= len(offered):
                    sink.journal.append(offered[-arg])
                    frames.append((sink.journal.size_bytes, "record",
                                   offered[-arg]))
            elif op == "pump":
                # The downstream takes ``arg`` records, then refuses.
                budget[0] = arg
                sent = min(arg, len(records) - through)
                assert sink.pump(0.0) == sent
                if sent:
                    frames.append((sink.journal.size_bytes, "mark",
                                   through + sent))
            else:
                del sink  # crash: no close()
                sink = open_sink(path)
            records, through = _ledger(frames)
            assert sink.journal.size_bytes == (frames[-1][0] if frames
                                               else 0)
            assert sink.pending == len(records) - through
        del sink
        with open(path, "rb") as handle:
            blob = handle.read()
        boundaries = [0] + [end for end, _, _ in frames]
        assert boundaries[-1] == len(blob)

        copy = os.path.join(workdir, "copy.wal")
        for data, whole in damaged_copies(blob, boundaries, cut, flip):
            with open(copy, "wb") as handle:
                handle.write(data)
            survivors, through = _ledger(frames[:whole])
            replay = replay_journal(copy)
            assert replay.records == survivors
            assert replay.torn == (len(data) > boundaries[whole])
            reopened = open_sink(copy)
            assert reopened.journal.torn_truncated == replay.torn
            # A sink reopened on the copy owes exactly the intact
            # prefix's undelivered records.
            budget[0] = len(survivors)
            reopened.pump(0.0)
            assert reopened.delivered == survivors[through:]
            extra = record(next(fresh), session_id="drv-new")
            reopened.journal.append(extra)
            del reopened
            recovered = replay_journal(copy)
            assert recovered.torn == 0
            assert recovered.records == survivors + [extra]


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


def test_reopened_sink_delivers_what_the_crashed_one_owed(tmp_path):
    path = str(tmp_path / "j.wal")
    sink = StoreAndForwardSink(VerdictJournal(path, fsync_every=1))
    sink.blackholed = True
    for i in range(5):
        sink.offer(record(i))
        sink.pump(float(i))
    del sink  # crash: no close()
    reopened = StoreAndForwardSink(VerdictJournal(path, fsync_every=1))
    assert reopened.pending == 5
    assert reopened.pump(5.0) == 5
    assert [r.sequence for r in reopened.delivered] == [0, 1, 2, 3, 4]


def test_reopened_sink_never_redelivers_what_the_crashed_one_did(tmp_path):
    path = str(tmp_path / "j.wal")
    downstream: list[VerdictRecord] = []
    sink = StoreAndForwardSink(VerdictJournal(path), downstream.append)
    for i in range(3):
        sink.offer(record(i))
    sink.pump(0.0)
    sink.blackholed = True
    sink.offer(record(3))
    sink.pump(1.0)
    del sink  # crash: no close()
    reopened = StoreAndForwardSink(VerdictJournal(path), downstream.append)
    reopened.offer(record(1))  # a retry of a window delivered pre-crash
    assert reopened.duplicates_suppressed == 1
    assert reopened.pump(2.0) == 1
    assert [r.sequence for r in downstream] == [0, 1, 2, 3]


def test_watermark_waits_for_records_parked_in_memory(tmp_path):
    """A watermark never lands ahead of a record it covers: while the
    disk is full it is skipped, and the next pump that can write
    carries it."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    sink = StoreAndForwardSink(journal)
    sink.offer(record(0))
    sink.pump(0.0)
    journal.simulate_disk_full(True)
    sink.offer(record(1))  # parked in memory, delivered all the same
    assert sink.pump(1.0) == 1
    assert replay_journal(path).acks.through == 1
    journal.simulate_disk_full(False)  # record 1 reaches the disk
    assert sink.pump(2.0) == 0
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1]
    assert replay.acks.through == 2


def test_watermarks_do_not_count_toward_the_fsync_batch(tmp_path,
                                                        monkeypatch):
    syncs = []
    monkeypatch.setattr(os, "fsync", syncs.append)
    journal = VerdictJournal(str(tmp_path / "j.wal"), fsync_every=3)
    sink = StoreAndForwardSink(journal)
    for i in range(2):
        sink.offer(record(i))
        sink.pump(float(i))  # one record frame and one watermark each
    assert syncs == []
    sink.offer(record(2))
    assert len(syncs) == 1
    journal.close()


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


# -- the shared ledger audit ------------------------------------------------

def delivered_ledger(tmp_path, count=3):
    """A sink that delivered ``count`` records through a closed journal."""
    path = str(tmp_path / "ledger.wal")
    journal = VerdictJournal(path)
    sink = StoreAndForwardSink(journal)
    for sequence in range(count):
        sink.offer(record(sequence))
    sink.pump(0.0)
    journal.close()
    ids = {("drv-0", sequence) for sequence in range(count)}
    return sink, path, ids


def test_clean_ledger_has_no_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    audit = audit_ledger(ids, ids, sink, path)
    assert audit.violations == []
    assert (audit.lost, audit.duplicates, audit.undelivered,
            audit.unjournaled, audit.torn) == (set(), 0, set(), set(), 0)
    assert audit.journal.ids == ids


def test_lost_id_is_its_one_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    audit = audit_ledger(ids | {("drv-0", 9)}, ids, sink, path)
    assert audit.lost == {("drv-0", 9)}
    [violation] = audit.violations
    assert "neither delivered nor deferred" in violation


def test_duplicate_delivery_is_its_one_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    sink.delivered.append(sink.delivered[0])
    audit = audit_ledger(ids, ids, sink, path)
    assert audit.duplicates == 1
    [violation] = audit.violations
    assert "duplicate downstream deliveries" in violation


def test_undelivered_id_is_its_one_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    owed = sink.delivered.pop().record_id  # journaled, never delivered
    audit = audit_ledger(ids, ids, sink, path)
    assert audit.undelivered == {owed}
    [violation] = audit.violations
    assert "never reached the downstream" in violation


def test_id_missing_from_the_journal_is_its_one_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    deferred = ("drv-1", 0)  # resolved and delivered, but never journaled
    sink.delivered.append(record(0, session_id="drv-1"))
    audit = audit_ledger(ids | {deferred}, ids | {deferred}, sink, path)
    assert audit.unjournaled == {deferred}
    [violation] = audit.violations
    assert "missing from the journal replay" in violation


def test_torn_journal_tail_is_its_one_violation(tmp_path):
    sink, path, ids = delivered_ledger(tmp_path)
    with open(path, "ab") as handle:
        handle.write(frame_record(record(7))[:-3])
    audit = audit_ledger(ids, ids, sink, path)
    assert audit.torn == 1
    [violation] = audit.violations
    assert "torn journal frames" in violation
