"""Serving resilience — journal throughput and failover recovery cost.

Measures what the resilience layer adds to the serving path and what it
costs: append/replay throughput of the fsync-batched verdict journal
across fsync cadences, and the wall-clock price of a full failover
(shard killed mid-drive, watchdog detection, checkpoint migration,
backoff restart) via the scripted serving chaos run.

Runs two ways:

* under pytest (with the other benchmarks): writes the usual text report;
* as a script::

      PYTHONPATH=src python benchmarks/bench_resilience.py --quick

  which writes a JSON report and exits non-zero if the failover run
  loses verdicts or the journal replay comes back dirty.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


class _StubResult:
    def __init__(self, count, degraded):
        self.predictions = np.full(count, 1, dtype=np.int64)
        self.probabilities = np.full((count, 5), 0.2)
        self.confidence = np.full(count, 0.8)
        self.degraded = degraded
        self.missing = ("frames",) if degraded else ()


class _StubModel:
    """predict_degraded-shaped stand-in: the benchmark measures the
    resilience machinery, not the forward pass."""

    def predict_degraded(self, images=None, imu=None):
        count = len(imu) if imu is not None else len(images)
        return _StubResult(count, images is None)


def run_journal_bench(records: int = 5000,
                      fsync_cadences: tuple[int, ...] = (1, 16, 256)
                      ) -> list[dict]:
    """Append + replay throughput across fsync batching cadences."""
    from repro.obs import MetricsRegistry
    from repro.serving import VerdictJournal, VerdictRecord, replay_journal

    rows = []
    for fsync_every in fsync_cadences:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "verdicts.wal")
            journal = VerdictJournal(path, fsync_every=fsync_every,
                                     registry=MetricsRegistry())
            started = time.perf_counter()
            for index in range(records):
                journal.append(VerdictRecord(
                    session_id=f"drv-{index % 8}", sequence=index,
                    timestamp=0.25 * index, predicted=2,
                    confidence=0.9, model_key="base"))
            journal.sync()
            append_seconds = time.perf_counter() - started
            size = journal.size_bytes
            journal.close()
            # One scan of the closed file: opening a journal scans it too.
            started = time.perf_counter()
            replay = replay_journal(path)
            replay_seconds = time.perf_counter() - started
            rows.append({
                "fsync_every": fsync_every,
                "records": records,
                "append_rps": round(records / append_seconds, 1),
                "replay_rps": round(records / replay_seconds, 1),
                "bytes": size,
                "replayed": len(replay.records),
                "torn": replay.torn,
                "duplicates": replay.duplicates,
            })
    return rows


def run_failover_bench(drivers: int = 4, duration: float = 12.0,
                       seed: int = 0) -> dict:
    """Wall-clock cost of a full scripted failover (virtual-clock chaos
    drive: shard kill, hang, sink blackhole, journal disk-full)."""
    from repro.serving import run_serving_chaos

    started = time.perf_counter()
    report = run_serving_chaos(_StubModel(), shards=3, drivers=drivers,
                               duration=duration, seed=seed)
    wall = time.perf_counter() - started
    return {
        "drivers": drivers,
        "duration_s": duration,
        "wall_seconds": round(wall, 3),
        "requested": report.requested,
        "delivered": report.delivered,
        "deferred": report.deferred,
        "lost": report.lost,
        "restarts": report.restarts,
        "migrations": report.migrations,
        "recovery_times_s": [round(r, 3) for r in report.recovery_times],
        "recovery_bound_s": report.recovery_bound,
        "journal_records": report.journal_records,
        "journal_torn": report.journal_torn,
        "violations": report.violations,
    }


def format_resilience(journal_rows: list[dict], failover: dict) -> str:
    """Text form of the JSON report."""
    lines = [
        "Serving resilience — journal throughput and failover cost",
        f"  {'fsync_every':>12} {'append rps':>12} {'replay rps':>12} "
        f"{'bytes':>10} {'torn':>5}",
    ]
    for row in journal_rows:
        lines.append(
            f"  {row['fsync_every']:>12} {row['append_rps']:>12.1f} "
            f"{row['replay_rps']:>12.1f} {row['bytes']:>10} "
            f"{row['torn']:>5}")
    recoveries = (", ".join(f"{r:.2f}s"
                            for r in failover["recovery_times_s"])
                  or "none")
    lines.extend([
        "",
        f"  failover chaos drive ({failover['drivers']} drivers, "
        f"{failover['duration_s']:.0f} s virtual): "
        f"{failover['wall_seconds']:.2f} s wall",
        f"  ledger: {failover['requested']} requested = "
        f"{failover['delivered']} delivered + {failover['deferred']} "
        f"deferred, {failover['lost']} lost",
        f"  recovery: {failover['restarts']} restarts, "
        f"{failover['migrations']} migrations, times [{recoveries}] "
        f"(bound {failover['recovery_bound_s']:.2f}s)",
    ])
    if failover["violations"]:
        lines.append("  VIOLATIONS: " + "; ".join(failover["violations"]))
    return "\n".join(lines)


# -- pytest entry points -----------------------------------------------------

def test_journal_replay_is_lossless(benchmark):
    """Every append cadence replays complete, untorn, duplicate-free."""
    from benchmarks.conftest import write_report

    rows = benchmark.pedantic(lambda: run_journal_bench(2000),
                              rounds=1, iterations=1)
    failover = run_failover_bench(drivers=2, duration=8.0)
    write_report("resilience", format_resilience(rows, failover))
    for row in rows:
        assert row["replayed"] == row["records"]
        assert row["torn"] == 0
        assert row["duplicates"] == 0


def test_batched_fsync_beats_per_record_fsync(benchmark):
    """The fsync_every batching knob is worth having."""
    rows = benchmark.pedantic(
        lambda: run_journal_bench(1500, fsync_cadences=(1, 256)),
        rounds=1, iterations=1)
    per_record, batched = rows[0], rows[1]
    assert batched["append_rps"] > per_record["append_rps"]


def test_failover_loses_nothing(benchmark):
    """A scripted shard kill mid-drive costs zero verdicts."""
    failover = benchmark.pedantic(
        lambda: run_failover_bench(drivers=2, duration=8.0),
        rounds=1, iterations=1)
    assert failover["lost"] == 0
    assert failover["violations"] == []
    assert failover["restarts"] >= 1


# -- script entry point ------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer records, shorter drive (CI smoke)")
    parser.add_argument("--records", type=int, default=None,
                        help="journal records (default 2000 quick / "
                             "20000 full)")
    parser.add_argument("--out", default=os.path.join(REPORT_DIR,
                                                      "resilience.json"))
    args = parser.parse_args(argv)
    records = args.records or (2000 if args.quick else 20000)
    duration = 8.0 if args.quick else 20.0
    journal_rows = run_journal_bench(records)
    failover = run_failover_bench(drivers=2 if args.quick else 6,
                                  duration=duration)
    report = {"journal": journal_rows, "failover": failover}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(format_resilience(journal_rows, failover))
    print(f"\n[json report written to {args.out}]")
    failed = False
    for row in journal_rows:
        if (row["replayed"] != row["records"] or row["torn"]
                or row["duplicates"]):
            print(f"FAIL: dirty journal replay at "
                  f"fsync_every={row['fsync_every']}")
            failed = True
    if failover["lost"] or failover["violations"]:
        print(f"FAIL: failover lost {failover['lost']} verdicts; "
              f"violations: {failover['violations']}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
