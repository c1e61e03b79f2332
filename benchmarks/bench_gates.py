"""DarNet's middleware gates: one run, one record, exit 1 on a failed gate.

Three sections measure what the middleware claims:

* **matrix** — compiled plans (``numpy-compiled``, the one serving
  inference path) against the ``reference`` layer forward for every
  deployable model (CNN, RNN, the full ensemble and the three privacy
  dCNN students) at each batch size, and float parity with the
  reference;
* **serving** — replay throughput with observability off and on,
  micro-batched against ``max_batch=1`` replay at 32 drivers, and, in a
  full run, latency percentiles across driver counts;
* **resilience** — verdict-journal append and replay at fsync cadences
  1, 16 and 256, and a scripted failover drive (shard kill, hang, sink
  blackhole, journal disk-full) over a stub model.

Every gate is one row of ``GATES``.  From the repository root::

    PYTHONPATH=src python benchmarks/bench_gates.py          # full run
    PYTHONPATH=src python benchmarks/bench_gates.py --quick  # CI smoke

writes ``BENCH_gates.json`` (or ``--out``), prints the report and exits 1
if any gate fails.  ``--quick`` runs shorter sweeps against the quick
floors.  A caller that sets no BLAS thread cap gets one BLAS thread, as
in ``perfbench/run.py``: two threads on a shared host made a forward's
time track the neighbours' load instead of the code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from functools import lru_cache, partial
from types import SimpleNamespace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    # Script mode: import benchmarks/ and perfbench/ from this checkout.
    sys.path.insert(0, REPO_ROOT)
    from perfbench.run import BLAS_THREAD_VARS

    # Before numpy loads: BLAS reads its thread cap once, at import.
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from benchmarks.provenance import host_provenance  # noqa: E402

#: Every gate: name -> (full floor, quick floor, direction).  A "min"
#: gate passes at or above its floor, a "max" gate at or below it.
GATES = {
    # Compiled over reference forward time at GATE_BATCH.
    "compiled_rnn_speedup": (2.0, 1.2, "min"),
    "compiled_ensemble_speedup": (5.0, 2.0, "min"),
    # Worst max|compiled - reference| over the float models.
    "float_backend_parity": (1e-5, 1e-5, "max"),
    # Share of replay throughput that metrics and tracing cost.
    "metrics_overhead": (0.05, 0.05, "max"),
    # Micro-batched over max_batch=1 replay: throughput, and p50 latency.
    "serving_batched_speedup": (3.0, 1.0, "min"),
    "serving_batched_p50_ratio": (1.0, 1.0, "max"),
    # fsync cadences whose replay misses, tears or repeats a record.
    "journal_dirty_replays": (0, 0, "max"),
    # Append rate at fsync_every=256 over fsync_every=1.
    "journal_fsync_batching_speedup": (1.0, 1.0, "min"),
    "failover_lost": (0, 0, "max"),
    "failover_violations": (0, 0, "max"),
    "failover_restarts": (1, 1, "min"),
}

COMPILED = "numpy-compiled"
#: Matrix batch sizes (full / quick); the speedup gates read GATE_BATCH.
BATCHES = (1, 8, 32, 128)
QUICK_BATCHES = (1, 32)
GATE_BATCH = 32
FSYNC_CADENCES = (1, 16, 256)


@lru_cache(maxsize=1)
def build_models():
    """The one model set: a small trained ensemble, the three privacy
    dCNN students and their dataset, shared by the matrix and serving.

    Accuracy is irrelevant, only forward cost is measured, so the
    ensemble trains minimally and the students copy the teacher's
    weights without running the distillation loop.
    """
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig
    from repro.core.distillation import DenoisingCNN, DistillationConfig
    from repro.core.privacy import PrivacyLevel
    from repro.datasets import generate_driving_dataset

    rng = np.random.default_rng(42)
    dataset = generate_driving_dataset(90, num_drivers=2, rng=rng)
    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=1, width=0.5),
        rnn_config=RnnConfig(hidden_units=8, epochs=1), rng=rng)
    ensemble.fit(dataset)
    students = {}
    for level in PrivacyLevel:
        student = DenoisingCNN(ensemble.cnn, level,
                               config=DistillationConfig(epochs=1), rng=rng)
        student.model.mark_fitted()
        students[level.model_name] = student
    return ensemble, students, dataset


def best_seconds(sides: dict, repeats: int) -> dict:
    """Best-of-``repeats`` wall time of each side's call, after two
    untimed calls of each.

    The sides take turns within every repeat, and which side goes first
    alternates between repeats, so a swing in the host's load lands on
    both sides of a ratio instead of on one block of repeats.  The
    collector is paused around the timed calls so a cycle sweep cannot
    land mid-call; best-of-N discards the scheduler noise a shared host
    adds on top.
    """
    for fn in sides.values():
        fn()
        fn()
    order = list(sides)
    best = dict.fromkeys(order, np.inf)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for repeat in range(repeats):
            for name in order if repeat % 2 == 0 else order[::-1]:
                start = time.perf_counter()
                sides[name]()
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def run_matrix(quick: bool) -> tuple[dict, dict]:
    """Compiled vs reference per model and batch, and parity.

    Forwards go through the public predict surface, so a cell measures
    what serving dispatch pays, not a bare network forward.
    """
    from repro.nn import using_backend

    ensemble, students, dataset = build_models()
    batches = QUICK_BATCHES if quick else BATCHES
    repeats = 2 if quick else 9
    # The dataset has 90 samples; tile it so batch 128 is real.
    tile = -(-max(batches) // len(dataset.images))
    images = np.concatenate([dataset.images] * tile)
    windows = np.concatenate([dataset.imu] * tile)

    def forward(model: str, batch: int) -> np.ndarray:
        if model == "cnn":
            return ensemble.cnn.predict_proba(images[:batch])
        if model == "rnn":
            return ensemble.imu_model.predict_proba(windows[:batch])
        if model == "ensemble":
            return ensemble.predict_degraded(
                images=images[:batch], imu=windows[:batch]).probabilities
        return students[model].predict_logits(images[:batch])

    def on(backend: str, call, *args):
        with using_backend(backend):
            return call(*args)

    models = ["cnn", "rnn", "ensemble", *sorted(students)]
    cells = {}
    for model in models:
        cells[model] = {}
        for batch in batches:
            best = best_seconds(
                {backend: partial(on, backend, forward, model, batch)
                 for backend in ("reference", COMPILED)}, repeats)
            reference, compiled = best["reference"], best[COMPILED]
            cells[model][f"batch_{batch}"] = {
                "reference_s": round(reference, 5),
                f"{COMPILED}_s": round(compiled, 5),
                f"{COMPILED}_speedup": round(reference / compiled, 2),
            }
    batch = max(batches)
    parity = {model: {"batch": batch, "max_abs_diff": float(np.max(np.abs(
        on("reference", forward, model, batch)
        - on(COMPILED, forward, model, batch))))} for model in models}
    print(f"Compiled vs reference, best of {repeats}\n"
          f"  {'model':<10} {'batch':>5} {'reference':>10} {'compiled':>9} "
          f"{'speedup':>8}")
    for model, row in cells.items():
        for key, cell in row.items():
            print(f"  {model:<10} {key[6:]:>5} {cell['reference_s']:>9.4f}s "
                  f"{cell[f'{COMPILED}_s']:>8.4f}s "
                  f"{cell[f'{COMPILED}_speedup']:>7.2f}x")
    gate = f"batch_{GATE_BATCH}"
    values = {
        "compiled_rnn_speedup": cells["rnn"][gate][f"{COMPILED}_speedup"],
        "compiled_ensemble_speedup":
            cells["ensemble"][gate][f"{COMPILED}_speedup"],
        "float_backend_parity": max(row["max_abs_diff"]
                                    for row in parity.values()),
    }
    return {"gate_batch": GATE_BATCH, "batches": list(batches),
            "repeats": repeats, "cells": cells, "parity": parity}, values


def _fields(report, *names: str) -> dict:
    """Named fields of a report; floats to three decimals."""
    values = {name: getattr(report, name) for name in names}
    return {name: round(value, 3) if isinstance(value, float) else value
            for name, value in values.items()}


def _replay_row(report) -> dict:
    return _fields(report, "drivers", "duration", "requests", "verdicts",
                   "degraded_verdicts", "throughput_rps", "wall_seconds",
                   "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
                   "mean_batch_size", "max_batch_size")


def run_serving(quick: bool) -> tuple[dict, dict]:
    """Observability off vs on, micro-batched vs per-request, and (full
    runs) latency across driver counts, all through replay servers."""
    from repro.serving import replay_concurrent_drives

    ensemble, _, _ = build_models()

    def replay(drivers: int, duration: float, seed: int, **options):
        return replay_concurrent_drives(ensemble, drivers=drivers,
                                        duration=duration, seed=seed,
                                        **options)

    # Shared hosts swing replay throughput by a quarter run to run, so
    # the two sides run interleaved (off, on, off, on ...) to share slow
    # drift, and each keeps its best run: noise only ever slows a run
    # down.  Every run is recorded, so the spread behind a verdict shows.
    drivers, duration = (8, 2.0) if quick else (16, 4.0)
    rps = {"off_rps": [], "on_rps": []}
    for _ in range(6):
        for side, observability in (("off_rps", False), ("on_rps", True)):
            rps[side].append(round(replay(
                drivers, duration, 7,
                observability=observability).throughput_rps, 1))
    overhead = round(1.0 - max(rps["on_rps"]) / max(rps["off_rps"]), 4)
    observability = {"drivers": drivers, "duration_s": duration, **rps,
                     "overhead_fraction": overhead}

    duration = 3.0 if quick else 10.0
    batched = _replay_row(replay(32, duration, 1, max_batch=32))
    unbatched = _replay_row(replay(32, duration, 1, max_batch=1))
    speedup = round(batched["throughput_rps"]
                    / unbatched["throughput_rps"], 2)
    sweep = [] if quick else [_replay_row(replay(count, 5.0, 2))
                              for count in (4, 16, 32)]
    print(f"\nServing replay, observability off/on at {drivers} drivers: "
          f"{rps['off_rps']} / {rps['on_rps']} rps\n"
          f"  {'mode':<10} {'drivers':>7} {'rps':>8} {'p50':>8} {'p95':>8} "
          f"{'p99':>8} {'batch':>6}")
    for name, row in [("batched", batched), ("unbatched", unbatched),
                      *(("sweep", row) for row in sweep)]:
        print(f"  {name:<10} {row['drivers']:>7} "
              f"{row['throughput_rps']:>8.1f} {row['latency_p50_ms']:>6.1f}ms "
              f"{row['latency_p95_ms']:>6.1f}ms {row['latency_p99_ms']:>6.1f}ms "
              f"{row['mean_batch_size']:>6.1f}")
    return {
        "observability": observability,
        "batching": {"batched": batched, "unbatched": unbatched,
                     "speedup": speedup},
        "latency_sweep": sweep,
    }, {
        "metrics_overhead": overhead,
        "serving_batched_speedup": speedup,
        "serving_batched_p50_ratio": (batched["latency_p50_ms"]
                                      / unbatched["latency_p50_ms"]),
    }


class _StubModel:
    """A ``predict_degraded`` stand-in: the failover drive measures the
    resilience machinery, not the forward pass."""

    def predict_degraded(self, images=None, imu=None):
        count = len(imu) if imu is not None else len(images)
        return SimpleNamespace(
            predictions=np.full(count, 1, dtype=np.int64),
            probabilities=np.full((count, 5), 0.2),
            confidence=np.full(count, 0.8),
            degraded=images is None,
            missing=("frames",) if images is None else ())


def run_resilience(quick: bool) -> tuple[dict, dict]:
    """Journal append and replay per fsync cadence, and a failover drive."""
    from repro.obs import MetricsRegistry
    from repro.serving import (VerdictJournal, VerdictRecord, replay_journal,
                               run_serving_chaos)

    records = 2000 if quick else 20000
    journal = []
    for fsync_every in FSYNC_CADENCES:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "verdicts.wal")
            log = VerdictJournal(path, fsync_every=fsync_every,
                                 registry=MetricsRegistry())
            started = time.perf_counter()
            for index in range(records):
                log.append(VerdictRecord(
                    session_id=f"drv-{index % 8}", sequence=index,
                    timestamp=0.25 * index, predicted=2,
                    confidence=0.9, model_key="base"))
            log.sync()
            append_seconds = time.perf_counter() - started
            size = log.size_bytes
            log.close()
            # Replay alone: opening a journal would scan the file too.
            started = time.perf_counter()
            replay = replay_journal(path)
            replay_seconds = time.perf_counter() - started
        journal.append({
            "fsync_every": fsync_every,
            "records": records,
            "append_rps": round(records / append_seconds, 1),
            "replay_rps": round(records / replay_seconds, 1),
            "bytes": size,
            "replayed": len(replay.records),
            "torn": replay.torn,
            "duplicates": replay.duplicates,
        })

    drivers, duration = (2, 8.0) if quick else (6, 20.0)
    started = time.perf_counter()
    chaos = run_serving_chaos(_StubModel(), shards=3, drivers=drivers,
                              duration=duration, seed=0)
    failover = {"wall_seconds": round(time.perf_counter() - started, 3),
                **_fields(chaos, "drivers", "duration", "requested",
                          "delivered", "deferred", "lost", "restarts",
                          "migrations", "recovery_times", "recovery_bound",
                          "journal_records", "journal_torn", "violations")}
    print(f"\nVerdict journal, {records} records\n"
          f"  {'fsync_every':>12} {'append rps':>12} {'replay rps':>12} "
          f"{'replayed':>9} {'torn':>5}")
    for row in journal:
        print(f"  {row['fsync_every']:>12} {row['append_rps']:>12.1f} "
              f"{row['replay_rps']:>12.1f} {row['replayed']:>9} "
              f"{row['torn']:>5}")
    print(f"Failover drive ({drivers} drivers, {duration:.0f} s virtual, "
          f"{failover['wall_seconds']:.2f} s wall): {chaos.requested} "
          f"requested = {chaos.delivered} delivered + {chaos.deferred} "
          f"deferred, {chaos.lost} lost; {chaos.restarts} restarts, "
          f"{chaos.migrations} migrations")
    for text in chaos.violations:
        print(f"  VIOLATION {text}")
    return {"journal": journal, "failover": failover}, {
        "journal_dirty_replays": sum(
            (row["replayed"], row["torn"], row["duplicates"]) != (records, 0, 0)
            for row in journal),
        "journal_fsync_batching_speedup": (journal[-1]["append_rps"]
                                           / journal[0]["append_rps"]),
        "failover_lost": chaos.lost,
        "failover_violations": len(chaos.violations),
        "failover_restarts": chaos.restarts,
    }


def check_gates(values: dict, quick: bool) -> dict:
    """Each ``GATES`` row judged on its value at the mode's floor."""
    gates = {}
    for name, (full, smoke, direction) in GATES.items():
        floor = smoke if quick else full
        value = values[name]
        gates[name] = {
            "value": value, "floor": floor, "direction": direction,
            "passed": value >= floor if direction == "min" else value <= floor,
        }
    return gates


def run_all(quick: bool) -> dict:
    """Every section, then every gate: the record ``main`` writes."""
    record = {"quick": quick, "host": host_provenance()}
    values = {}
    for name, section in (("matrix", run_matrix), ("serving", run_serving),
                          ("resilience", run_resilience)):
        record[name], section_values = section(quick)
        values.update(section_values)
    record["gates"] = check_gates(values, quick)
    return record


def test_every_gate_holds_in_a_quick_run(benchmark):
    """``pytest benchmarks/ --benchmark-only``: a quick run, every gate."""
    record = benchmark.pedantic(lambda: run_all(quick=True),
                                rounds=1, iterations=1)
    failed = [name for name, gate in record["gates"].items()
              if not gate["passed"]]
    assert not failed, f"gates failed: {failed}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter sweeps against the quick floors")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_gates.json"))
    args = parser.parse_args(argv)
    record = run_all(args.quick)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print()
    for name, gate in record["gates"].items():
        bound = ">=" if gate["direction"] == "min" else "<="
        print(f"  {'PASS' if gate['passed'] else 'FAIL'} {name}: "
              f"{gate['value']:.4g} (must be {bound} {gate['floor']:g})")
    print(f"\n[record written to {args.out}]")
    failed = [name for name, gate in record["gates"].items()
              if not gate["passed"]]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
