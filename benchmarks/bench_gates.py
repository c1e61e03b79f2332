"""DarNet's gates: one run, one record, exit 1 on a failed gate.

Three sections measure what the middleware claims, and a fourth
reproduces the paper's evaluation:

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
  blackhole, journal disk-full) over a stub model;
* **paper** — Tables 1-3, Figures 2-5, five ablations and two
  extensions, each run once with fixed seeds at ``DEFAULT`` scale
  (``SMOKE`` in a quick run); every shape the paper's numbers must
  keep is a gate.

Every gate is one row of ``GATES``.  From the repository root::

    PYTHONPATH=src python benchmarks/bench_gates.py          # full run
    PYTHONPATH=src python benchmarks/bench_gates.py --quick  # CI smoke

writes ``BENCH_gates.json`` (or ``--out``), prints the report and exits 1
if any gate fails.  ``--quick`` runs shorter sweeps against the quick
floors; a row with no quick floor is recorded as skipped there.  A full
run takes about 12 minutes on a 2-CPU host, the paper section nearly
all of it.  A caller that sets no BLAS thread cap gets one BLAS thread,
as in ``perfbench/run.py``: two threads on a shared host made a
forward's time track the neighbours' load instead of the code.  The cap
also moves the trained models' accuracies (Table 3's most), so the
paper numbers hold for the cap the record's ``host`` block names.
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
    # The paper's shapes.  A quick floor of None: the shape holds only at
    # the default training budget, and a quick run records it as skipped.
    # Table 1: labelled frames, every class seen, clock error in seconds.
    "table1_frames": (1, 1, "min"),
    "table1_worst_clock_error_s": (0.1, 0.1, "max"),
    "table1_seed_1_frames": (1, 1, "min"),
    "table1_seed_1_empty_classes": (0, 0, "max"),
    "table1_seed_1_imu_points": (1, 1, "min"),
    # Table 2: top-1 gaps (fractions) and the IMU-only top-1.
    "table2_rnn_ensemble_gain": (0.05, None, "min"),
    "table2_svm_ensemble_gain": (0.05, None, "min"),
    "table2_rnn_over_svm": (-0.01, None, "min"),
    "table2_imu_rnn_top1": (0.85, None, "min"),
    "table2_imu_svm_top1": (0.80, None, "min"),
    # Table 3: each dCNN against the CNN and the other levels; 3/18 is
    # three times the 18-class chance floor.
    "table3_low_over_cnn": (-0.02, None, "min"),
    "table3_medium_gap": (0.15, None, "max"),
    "table3_high_drop": (0.05, None, "min"),
    "table3_high_top1": (3.0 / 18.0, None, "min"),
    "table3_low_over_medium": (-0.02, None, "min"),
    "table3_medium_over_high": (0.0, None, "min"),
    # Figure 2: a clean drive delivers everything; 20 % loss shows in
    # delivery, yet the aligned grid still forms.
    "fig2_delivery_ratio": (1.0, 1.0, "min"),
    "fig2_worst_clock_error_s": (0.05, 0.05, "max"),
    "fig2_lossy_delivery_ratio": (0.5, 0.5, "min"),
    "fig2_lossy_delivery_shortfall": (0.05, 0.05, "min"),
    "fig2_lossy_grid_steps": (1, 1, "min"),
    # Figure 3: smallest ratio between successive privacy paths, of the
    # bytes saved and of the transfer time.
    "fig3_reduction_step": (1.0, 1.0, "min"),
    "fig3_transfer_step": (1.0, 1.0, "min"),
    # Figure 4: PSNR in dB; distinct pixel values shrink level by level.
    "fig4_low_over_medium_psnr_db": (-0.5, -0.5, "min"),
    "fig4_low_over_high_psnr_db": (-0.5, -0.5, "min"),
    "fig4_unique_value_step": (0, 0, "min"),
    # Figure 5: row-normalized confusion rates.
    "fig5_cnn_texting": (0.65, None, "max"),
    "fig5_texting_recovery": (0.2, None, "min"),
    "fig5_cnn_texting_leak": (0.25, None, "min"),
    "fig5_cnn_normal_false_positives": (0.1, None, "min"),
    "fig5_phone_class_recovery": (0.1, None, "min"),
    # Ablations: top-1 gaps (fractions), and LSTM minus GRU parameters.
    "ablation_bn_over_cnn": (0.0, None, "min"),
    "ablation_bn_vs_best_naive": (-0.05, None, "min"),
    "ablation_teacher_init_gain": (-0.05, -0.05, "min"),
    "ablation_pretrain_gain": (-0.08, -0.08, "min"),
    "ablation_gru_params_saved": (1, 1, "min"),
    "ablation_gru_top1": (0.8, None, "min"),
    "ablation_gru_lstm_gap": (0.12, None, "max"),
    "ablation_window_20_over_5": (-0.02, -0.02, "min"),
    # Extensions: re-identification top-1 and privacy margin; placement
    # verdict latencies in seconds.
    "ext_adversary_clean_leak": (0.1, None, "min"),
    "ext_adversary_high_over_clean": (0.02, None, "max"),
    "ext_adversary_margin_gain": (-0.05, None, "min"),
    "ext_placement_local_spread_s": (1e-9, 1e-9, "max"),
    "ext_placement_remote_penalty_low_bw_s": (0.0, 0.0, "min"),
    "ext_placement_remote_gain_high_bw_s": (0.0, 0.0, "min"),
    "ext_placement_privacy_slowdown_s": (1e-9, 1e-9, "max"),
}
#: How a quick run records a row with no quick floor.
SMOKE_SKIP = "not judged at smoke scale: the shape needs the default budget"

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


# -- the paper's evaluation (§5) ---------------------------------------------

TABLE2_SEED, TABLE3_SEED = 42, 5
PLACEMENT_BANDWIDTHS = (5e4, 2e5, 1e6, 5e6, 2e7, 1e8)


def _top1(title: str, top1: dict) -> dict:
    """Print a top-1 table; return it as the record holds it."""
    print(f"\n{title}")
    for name, value in top1.items():
        print(f"  {name:<18} top1 {value * 100:6.2f}%")
    return {name: round(float(value), 4) for name, value in top1.items()}


def _imu_top1(config, steps: int, per_class: int, data_seed: int,
              model_seed: int):
    """Train an IMU RNN on 80 % of shuffled normal/talking/texting
    windows; return it with its top-1 on the other 20 %."""
    from repro.core import ImuSequenceRNN
    from repro.datasets import DrivingBehavior, generate_imu_windows

    rng = np.random.default_rng(data_seed)
    behaviors = (DrivingBehavior.NORMAL, DrivingBehavior.TALKING,
                 DrivingBehavior.TEXTING)
    x = np.concatenate([generate_imu_windows(behavior, per_class,
                                             steps=steps, rng=rng)
                        for behavior in behaviors])
    y = np.repeat(np.arange(len(behaviors)), per_class)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    cut = int(0.8 * len(y))
    model = ImuSequenceRNN(config, rng=np.random.default_rng(model_seed))
    model.fit(x[:cut], y[:cut])
    return model, model.evaluate(x[cut:], y[cut:])


def _table1(scale) -> tuple[dict, dict]:
    """Table 1: the class inventory of one scripted drive per driver
    through agents, channels and controller (seed 0); a second
    collection (seed 1) must see every class."""
    from repro.experiments import format_table1, run_table1

    inventory, rerun = run_table1(scale, seed=0), run_table1(scale, seed=1)
    print(f"\n{format_table1(inventory)}")

    def by_class(counts: dict) -> dict:
        return {behavior.name.lower(): count
                for behavior, count in counts.items()}

    return {
        "seed": 0, "drivers": scale.num_drivers,
        "frames": by_class(inventory.frame_counts),
        "imu_points": by_class(inventory.imu_reading_counts),
        "worst_clock_error_ms": round(inventory.worst_clock_error * 1e3, 2),
        "mean_uplink_latency_ms":
            round(inventory.mean_channel_latency * 1e3, 2),
        "seed_1_frames": by_class(rerun.frame_counts),
    }, {
        "table1_frames": sum(inventory.frame_counts.values()),
        "table1_worst_clock_error_s": inventory.worst_clock_error,
        "table1_seed_1_frames": sum(rerun.frame_counts.values()),
        "table1_seed_1_empty_classes":
            sum(count == 0 for count in rerun.frame_counts.values()),
        "table1_seed_1_imu_points": sum(rerun.imu_reading_counts.values()),
    }


def _table2(table2) -> tuple[dict, dict]:
    """Table 2: top-1 of the three architectures, and IMU-only (§5.2)."""
    from repro.experiments import format_table2

    top1 = {arch: result.top1 for arch, result in table2.results.items()}
    imu = table2.imu_only
    print(f"\n{format_table2(table2)}")
    return {
        "seed": TABLE2_SEED,
        "top1": {arch: round(value, 4) for arch, value in top1.items()},
        "imu_only_top1": {model: round(value, 4)
                          for model, value in imu.items()},
    }, {
        "table2_rnn_ensemble_gain": top1["cnn+rnn"] - top1["cnn"],
        "table2_svm_ensemble_gain": top1["cnn+svm"] - top1["cnn"],
        "table2_rnn_over_svm": top1["cnn+rnn"] - top1["cnn+svm"],
        "table2_imu_rnn_top1": imu["rnn"],
        "table2_imu_svm_top1": imu["svm"],
    }


def _table3(table3) -> tuple[dict, dict]:
    """Table 3: the 18-class teacher CNN and its three dCNN students."""
    from repro.core import PrivacyLevel
    from repro.experiments import format_table3

    cnn, dcnn = table3.cnn_top1, table3.dcnn_top1
    low, medium, high = (dcnn[PrivacyLevel.LOW], dcnn[PrivacyLevel.MEDIUM],
                         dcnn[PrivacyLevel.HIGH])
    print(f"\n{format_table3(table3)}")
    return {
        "seed": TABLE3_SEED,
        "top1": {"CNN": round(cnn, 4),
                 **{level.model_name: round(top1, 4)
                    for level, top1 in dcnn.items()}},
    }, {
        "table3_low_over_cnn": low - cnn,
        "table3_medium_gap": abs(medium - cnn),
        "table3_high_drop": low - high,
        "table3_high_top1": high,
        "table3_low_over_medium": low - medium,
        "table3_medium_over_high": medium - high,
    }


def _fig2() -> tuple[dict, dict]:
    """Figure 2: one 3-class drive end to end, clean and at 20 % loss."""
    from repro.experiments import run_fig2

    drives = {"clean": {"seed": 0, "segment_seconds": 5.0},
              "lossy": {"seed": 3, "segment_seconds": 4.0,
                        "drop_probability": 0.2}}
    results = {name: run_fig2(**options) for name, options in drives.items()}
    record = {}
    for name, result in results.items():
        record[name] = {
            **drives[name], "duration_s": round(result.duration, 2),
            "readings": result.readings_received,
            "frames": result.frames_received,
            "grid_steps": result.grid_steps,
            "worst_clock_error_ms": round(result.worst_clock_error * 1e3, 2),
            "mean_uplink_latency_ms": round(result.mean_latency * 1e3, 2),
            "delivery_ratio": round(result.delivery_ratio, 4)}
        print(f"\nFigure 2, {name} drive: " + ", ".join(
            f"{key} {value}" for key, value in record[name].items()))
    clean, lossy = results["clean"], results["lossy"]
    return record, {
        "fig2_delivery_ratio": clean.delivery_ratio,
        "fig2_worst_clock_error_s": clean.worst_clock_error,
        "fig2_lossy_delivery_ratio": lossy.delivery_ratio,
        "fig2_lossy_delivery_shortfall": 1.0 - lossy.delivery_ratio,
        "fig2_lossy_grid_steps": lossy.grid_steps,
    }


def _fig3() -> tuple[dict, dict]:
    """Figure 3: bytes per frame on each privacy path, and the transfer
    time through a 2 Mbps and a 500 kbps channel."""
    from repro.experiments import run_fig3

    fast, slow = run_fig3(), run_fig3(bandwidth_bps=500_000.0)
    reduction, transfer = fast.reduction, slow.transfer_seconds
    print("\nFigure 3, bytes per frame: " + ", ".join(
        f"{path} {size}" for path, size in fast.bytes_per_frame.items()))
    return {
        "bytes_per_frame": fast.bytes_per_frame,
        "reduction": {path: round(factor, 2)
                      for path, factor in reduction.items()},
        "transfer_ms_2mbps": {path: round(seconds * 1e3, 2) for path, seconds
                              in fast.transfer_seconds.items()},
        "transfer_ms_500kbps": {path: round(seconds * 1e3, 2)
                                for path, seconds in transfer.items()},
    }, {
        "fig3_reduction_step": min(reduction["low"],
                                   reduction["medium"] / reduction["low"],
                                   reduction["high"] / reduction["medium"]),
        "fig3_transfer_step": min(transfer["full"] / transfer["low"],
                                  transfer["low"] / transfer["high"]),
    }


def _fig4() -> tuple[dict, dict]:
    """Figure 4: one frame's PSNR at each distortion level (seed 3), and
    another frame's distinct pixel values per level (seed 7)."""
    from repro.experiments import run_fig4

    strip, other = run_fig4(seed=3), run_fig4(seed=7)
    psnr = strip.psnr
    levels = ("full", "low", "medium", "high")
    unique = {level: len(np.unique(other.frames[level])) for level in levels}
    print("\nFigure 4, PSNR: " + ", ".join(
        f"{level} {value:.1f} dB" for level, value in psnr.items()))
    return {
        "seed": 3, "edges": strip.edges,
        "psnr_db": {level: round(value, 2) for level, value in psnr.items()},
        "unique_values_seed_7": unique,
    }, {
        "fig4_low_over_medium_psnr_db": psnr["low"] - psnr["medium"],
        "fig4_low_over_high_psnr_db": psnr["low"] - psnr["high"],
        "fig4_unique_value_step": min(unique[a] - unique[b]
                                      for a, b in zip(levels, levels[1:])),
    }


def _fig5(table2) -> tuple[dict, dict]:
    """Figure 5: each architecture's row-normalized confusion on the
    Table 2 run, and the §5.2 per-class checks."""
    from repro.datasets import DrivingBehavior
    from repro.experiments import format_fig5
    from repro.nn.metrics import normalized_confusion

    normal, talking, texting, reaching = (
        DrivingBehavior.NORMAL, DrivingBehavior.TALKING,
        DrivingBehavior.TEXTING, DrivingBehavior.REACHING)
    rates = {arch: normalized_confusion(result.confusion)
             for arch, result in table2.results.items()}
    cnn, ensemble = rates["cnn"], rates["cnn+rnn"]
    phone = [normal, talking, texting]
    print(f"\n{format_fig5(table2)}")
    return {
        "confusion": {arch: np.round(matrix, 4).tolist()
                      for arch, matrix in rates.items()},
        "cnn_texting": round(cnn[texting, texting], 4),
        "ensemble_texting": round(ensemble[texting, texting], 4),
        "ensemble_reaching_as_talking": round(ensemble[reaching, talking], 4),
    }, {
        "fig5_cnn_texting": cnn[texting, texting],
        "fig5_texting_recovery":
            ensemble[texting, texting] - cnn[texting, texting],
        "fig5_cnn_texting_leak": cnn[texting, normal] + cnn[texting, talking],
        "fig5_cnn_normal_false_positives":
            cnn[:, normal].sum() - cnn[normal, normal],
        "fig5_phone_class_recovery": (np.mean([ensemble[i, i] for i in phone])
                                      - np.mean([cnn[i, i] for i in phone])),
    }


def _ablation_combiner(table2) -> tuple[dict, dict]:
    """The BN combiner, the paper's stated novelty (§1), against three
    plain fusion rules over the same Table 2 member outputs."""
    from repro.core import (AveragingCombiner, MaxConfidenceCombiner,
                            ProductCombiner)
    from repro.nn.metrics import accuracy

    ensemble, evaluation = table2.ensembles["cnn+rnn"], table2.evaluation
    cnn_probs = ensemble.cnn.predict_proba(evaluation.images)
    imu_probs = ensemble.imu_model.predict_proba(evaluation.imu)
    combiners = {"bayesian-network": ensemble.combiner,
                 "averaging": AveragingCombiner(),
                 "product": ProductCombiner(),
                 "max-confidence": MaxConfidenceCombiner()}
    top1 = {name: accuracy(evaluation.labels,
                           combiner.predict(cnn_probs, imu_probs))
            for name, combiner in combiners.items()}
    top1["cnn-only"] = accuracy(evaluation.labels, cnn_probs.argmax(axis=1))
    best_naive = max(top1["averaging"], top1["product"],
                     top1["max-confidence"])
    return {"top1": _top1("Ablation, combiner rule", top1)}, {
        "ablation_bn_over_cnn": top1["bayesian-network"] - top1["cnn-only"],
        "ablation_bn_vs_best_naive": top1["bayesian-network"] - best_naive,
    }


def _ablation_distill_init(scale, table3) -> tuple[dict, dict]:
    """dCNN-L distilled from random weights under Table 3's budget,
    against the teacher-initialized student (§4.3)."""
    from repro.core import DenoisingCNN, DistillationConfig, PrivacyLevel

    student = DenoisingCNN(
        table3.teacher, PrivacyLevel.LOW,
        config=DistillationConfig(epochs=scale.distill_epochs,
                                  init_from_teacher=False),
        rng=np.random.default_rng(9))
    student.distill(table3.train.images)
    top1 = {"teacher-init": table3.dcnn_top1[PrivacyLevel.LOW],
            "random-init": student.evaluate(table3.evaluation.images,
                                            table3.evaluation.labels)}
    return {"top1": _top1("Ablation, dCNN-L initialization", top1)}, {
        "ablation_teacher_init_gain":
            top1["teacher-init"] - top1["random-init"],
    }


def _ablation_finetune(scale) -> tuple[dict, dict]:
    """The frame CNN fine-tuned from the generic-shapes checkpoint
    against from scratch, on a short budget (§4.2)."""
    from repro.core import CnnConfig, DriverFrameCNN
    from repro.datasets import generate_driving_dataset

    epochs = max(3, scale.cnn_epochs // 3)
    dataset = generate_driving_dataset(max(200, scale.dataset_samples // 3),
                                       num_drivers=3,
                                       rng=np.random.default_rng(11))
    train, evaluation = dataset.train_eval_split(
        rng=np.random.default_rng(0))
    config = CnnConfig(epochs=epochs, width=scale.cnn_width,
                       pretrain_epochs=3, pretrain_samples_per_class=30)
    top1 = {}
    for name, pretrain in (("pretrained", True), ("from-scratch", False)):
        cnn = DriverFrameCNN(config, rng=np.random.default_rng(7))
        if pretrain:
            cnn.pretrain()
        cnn.fit(train.images, train.labels)
        top1[name] = cnn.evaluate(evaluation.images, evaluation.labels)
    return {"epochs": epochs, "top1": _top1(
        f"Ablation, CNN initialization ({epochs} epochs)", top1)}, {
        "ablation_pretrain_gain": top1["pretrained"] - top1["from-scratch"],
    }


def _ablation_gru(scale) -> tuple[dict, dict]:
    """The paper's bidirectional LSTM against an identically shaped GRU
    on the same IMU windows."""
    from repro.core import RnnConfig

    top1, params = {}, {}
    for cell in ("lstm", "gru"):
        model, top1[cell] = _imu_top1(
            RnnConfig(epochs=scale.rnn_epochs, cell=cell), steps=20,
            per_class=max(40, scale.dataset_samples // 6), data_seed=2,
            model_seed=4)
        params[cell] = model.network.num_parameters()
    return {"top1": _top1("Ablation, recurrent cell", top1),
            "parameters": params}, {
        "ablation_gru_params_saved": params["lstm"] - params["gru"],
        "ablation_gru_top1": top1["gru"],
        "ablation_gru_lstm_gap": abs(top1["gru"] - top1["lstm"]),
    }


def _ablation_window(scale) -> tuple[dict, dict]:
    """IMU window length around the paper's 20 steps (4 Hz x 5 s)."""
    from repro.core import RnnConfig

    epochs = max(4, scale.rnn_epochs // 2)
    top1 = {steps: _imu_top1(
        RnnConfig(window_steps=steps, epochs=epochs), steps=steps,
        per_class=max(30, scale.dataset_samples // 12), data_seed=steps,
        model_seed=1)[1] for steps in (5, 10, 20, 40)}
    return {"top1_by_steps": _top1("Ablation, IMU window steps", top1)}, {
        "ablation_window_20_over_5": top1[20] - top1[5],
    }


def _ext_adversary(scale, table3) -> tuple[dict, dict]:
    """Driver re-identification at each distortion level, trained on
    the Table 3 frames of 10 drivers (§5.3's open question)."""
    from repro.core import CnnConfig, run_privacy_adversary_study

    results = run_privacy_adversary_study(
        np.concatenate([table3.train.images, table3.evaluation.images]),
        np.concatenate([table3.train.drivers, table3.evaluation.drivers]),
        config=CnnConfig(epochs=max(4, scale.cnn_epochs // 2),
                         width=scale.cnn_width),
        rng=np.random.default_rng(3))
    top1 = _top1("Extension, driver re-identification",
                 {level: result.accuracy for level, result in results.items()})
    clean, high = results["clean"], results["high"]
    return {
        "top1": top1,
        "chance": round(clean.chance, 4),
        "privacy_margin": {level: round(result.privacy_margin, 4)
                           for level, result in results.items()},
    }, {
        "ext_adversary_clean_leak": clean.accuracy - clean.chance,
        "ext_adversary_high_over_clean": high.accuracy - clean.accuracy,
        "ext_adversary_margin_gain":
            high.privacy_margin - clean.privacy_margin,
    }


def _ext_placement() -> tuple[dict, dict]:
    """Verdict latency on the device and on the server across link
    bandwidths (§3.2), for 64 px frames and for dCNN-H's."""
    from repro.core import PrivacyLevel
    from repro.streaming import placement_sweep

    def sweep(seed: int, edge: int = 64) -> list[dict]:
        return placement_sweep(PLACEMENT_BANDWIDTHS, frame_edge=edge,
                               latency_s=0.005,
                               rng=np.random.default_rng(seed))

    def ms(rows: list[dict], key: str) -> list[float]:
        return [round(row[key] * 1e3, 1) for row in rows]

    crossover = sweep(0)
    high_edge = PrivacyLevel.HIGH.target_edge(64)
    full, high = sweep(1), sweep(1, high_edge)
    local = [row["local_seconds"] for row in crossover]
    remote = [row["remote_seconds"] for row in crossover]
    print(f"\nExtension, placement: remote {ms(crossover, 'remote_seconds')}"
          f" ms against local {ms(crossover, 'local_seconds')[0]} ms")
    return {
        "bandwidths_bps": list(PLACEMENT_BANDWIDTHS),
        "local_ms": ms(crossover, "local_seconds"),
        "remote_ms": ms(crossover, "remote_seconds"),
        "decision": [row["decision"] for row in crossover],
        "high_privacy_edge": high_edge,
        "remote_ms_64px": ms(full, "remote_seconds"),
        "remote_ms_high_privacy": ms(high, "remote_seconds"),
    }, {
        "ext_placement_local_spread_s": max(local) - min(local),
        "ext_placement_remote_penalty_low_bw_s": remote[0] - local[0],
        "ext_placement_remote_gain_high_bw_s": local[-1] - remote[-1],
        "ext_placement_privacy_slowdown_s": max(
            small["remote_seconds"] - large["remote_seconds"]
            for large, small in zip(full, high)),
    }


def run_paper(quick: bool) -> tuple[dict, dict]:
    """Every experiment of the paper's evaluation once, at ``SMOKE``
    scale in a quick run and ``DEFAULT`` otherwise (``repro reproduce
    --scale full`` runs ``FULL``).  Table 2's run also feeds Figure 5 and
    the combiner ablation; Table 3's the distillation ablation and the
    re-identification study."""
    from repro.experiments import DEFAULT, SMOKE, run_table2, run_table3

    scale = SMOKE if quick else DEFAULT
    table2 = run_table2(scale, seed=TABLE2_SEED)
    table3 = run_table3(scale, seed=TABLE3_SEED)
    parts = {
        "table1": _table1(scale),
        "table2": _table2(table2),
        "table3": _table3(table3),
        "fig2": _fig2(),
        "fig3": _fig3(),
        "fig4": _fig4(),
        "fig5": _fig5(table2),
        "ablation_combiner": _ablation_combiner(table2),
        "ablation_distill_init": _ablation_distill_init(scale, table3),
        "ablation_finetune": _ablation_finetune(scale),
        "ablation_gru": _ablation_gru(scale),
        "ablation_window": _ablation_window(scale),
        "ext_adversary": _ext_adversary(scale, table3),
        "ext_placement": _ext_placement(),
    }
    record = {"scale": scale.name,
              **{name: numbers for name, (numbers, _) in parts.items()}}
    values = {name: value for _, gates in parts.values()
              for name, value in gates.items()}
    return record, values


def check_gates(values: dict, quick: bool) -> dict:
    """Each ``GATES`` row judged on its value at the mode's floor; a row
    with no floor for the mode is recorded as skipped, not judged."""
    gates = {}
    for name, (full, smoke, direction) in GATES.items():
        floor = smoke if quick else full
        value = values[name]
        gate = gates[name] = {"value": value, "floor": floor,
                              "direction": direction}
        if floor is None:
            gate.update(passed=None, skipped=SMOKE_SKIP)
        else:
            gate["passed"] = bool(value >= floor if direction == "min"
                                  else value <= floor)
    return gates


def run_all(quick: bool) -> dict:
    """Every section, then every gate: the record ``main`` writes."""
    record = {"quick": quick, "host": host_provenance()}
    values = {}
    for name, section in (("matrix", run_matrix), ("serving", run_serving),
                          ("resilience", run_resilience),
                          ("paper", run_paper)):
        record[name], section_values = section(quick)
        values.update(section_values)
    record["gates"] = check_gates(values, quick)
    return record


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
        if gate["passed"] is None:
            print(f"  SKIP {name}: {gate['value']:.4g} ({gate['skipped']})")
            continue
        bound = ">=" if gate["direction"] == "min" else "<="
        print(f"  {'PASS' if gate['passed'] else 'FAIL'} {name}: "
              f"{gate['value']:.4g} (must be {bound} {gate['floor']:g})")
    print(f"\n[record written to {args.out}]")
    failed = [name for name, gate in record["gates"].items()
              if gate["passed"] is False]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
