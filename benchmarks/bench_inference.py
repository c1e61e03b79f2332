"""Inference — compiled plans vs. the reference path, serial vs. workers.

Measures single-image latency and batched throughput for every
deployable model (CNN, RNN, the three privacy dCNNs, and the full
ensemble), comparing the compiled plans (``numpy-compiled``, the one
serving inference path) against the ``reference`` backend, which runs
the plain training-style layer forward with backward caches.  A second
section replays concurrent drives through the serving stack with
``--workers 0`` (in-process) vs. persistent shared-memory workers sized
from the host's CPU count (cores minus one, at least one — the
executor's own default) to measure the parallel executor.

Runs two ways:

* under pytest (with the other benchmarks): writes the usual text report;
* as a script for CI's bench-inference-smoke job::

      PYTHONPATH=src python benchmarks/bench_inference.py --quick

  which writes ``BENCH_inference.json`` and exits non-zero if a gate
  fails.  Gates: the compiled ensemble must clear ``ENSEMBLE_FLOOR``
  (2x) over the reference at batch 32 — 1.2x in ``--quick`` smoke mode
  — and the worker replay must clear ``PARALLEL_FLOOR`` (1.5x) *when
  the host has at least two cores*; on a single-core host that gate is
  recorded as a structured skip (``{"skipped": true, "reason": ...,
  "cpu_count": N}``) with the numbers still measured and written
  honestly.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from functools import lru_cache

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: Acceptance floors (full run / CI smoke / parallel replay).
ENSEMBLE_FLOOR = 2.0
SMOKE_FLOOR = 1.2
PARALLEL_FLOOR = 1.5

#: Max fractional throughput loss the observability layer may cost.
METRICS_OVERHEAD_LIMIT = 0.05

BATCH = 32


@lru_cache(maxsize=1)
def inference_models():
    """A small trained ensemble plus the three privacy dCNN students.

    Accuracy is irrelevant — only the forward-pass cost is measured — so
    the ensemble trains minimally and the students copy teacher weights
    without running the distillation loop.
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
        student = DenoisingCNN(
            ensemble.cnn, level,
            config=DistillationConfig(epochs=1), rng=rng)
        student.model.mark_fitted()  # weights are the copied teacher's
        students[level.model_name] = student
    return ensemble, students, dataset


def _best_seconds(fn, *, repeats: int = 3) -> float:
    """Best-of-N wall time after one untimed warmup call."""
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _compiled_vs_reference(fn, *, repeats: int = 3) -> tuple[float, float]:
    """(compiled_seconds, reference_seconds) for one forward callable."""
    from repro.nn import using_backend

    with using_backend("numpy-compiled"):
        compiled = _best_seconds(fn, repeats=repeats)
    with using_backend("reference"):
        reference = _best_seconds(fn, repeats=repeats)
    return compiled, reference


def parallel_workers() -> int:
    """Worker count for the parallel gate: the executor's own default
    (one core left for the dispatching parent), at least one."""
    from repro.serving.executor import default_worker_count

    return max(1, default_worker_count())


def run_model_benchmarks(*, batch: int = BATCH, repeats: int = 3) -> dict:
    """Latency + throughput rows for every deployable forward pass."""
    ensemble, students, dataset = inference_models()
    images = dataset.images[:batch]
    windows = dataset.imu[:batch]
    forwards = {
        "cnn": lambda x=images: ensemble.cnn.predict_proba(x),
        "rnn": lambda x=windows: ensemble.imu_model.predict_proba(x),
        "ensemble": lambda: ensemble.predict_degraded(images=images,
                                                      imu=windows),
    }
    for name, student in students.items():
        forwards[name] = lambda s=student: s.predict_logits(images)
    single = {
        "cnn": lambda: ensemble.cnn.predict_proba(images[:1]),
        "rnn": lambda: ensemble.imu_model.predict_proba(windows[:1]),
        "ensemble": lambda: ensemble.predict_degraded(images=images[:1],
                                                      imu=windows[:1]),
    }
    rows = {}
    for name, fn in forwards.items():
        compiled, reference = _compiled_vs_reference(fn, repeats=repeats)
        row = {
            "batch": batch,
            "compiled_s": round(compiled, 5),
            "reference_s": round(reference, 5),
            "speedup": round(reference / compiled, 2),
            "throughput_ips": round(batch / compiled, 1),
        }
        if name in single:
            row["latency_ms"] = round(
                1e3 * _best_seconds(single[name], repeats=repeats), 3)
        rows[name] = row
    return rows


def run_parallel_benchmark(*, drivers: int = 16, duration: float = 4.0,
                           workers: int | None = None,
                           seed: int = 5) -> dict:
    """Serving replay throughput, in-process vs. persistent workers."""
    from repro.serving import replay_concurrent_drives

    if workers is None:
        workers = parallel_workers()
    ensemble, _, _ = inference_models()
    serial = replay_concurrent_drives(
        ensemble, drivers=drivers, duration=duration, seed=seed, workers=0)
    pooled = replay_concurrent_drives(
        ensemble, drivers=drivers, duration=duration, seed=seed,
        workers=workers)
    speedup = (pooled.throughput_rps / serial.throughput_rps
               if serial.throughput_rps else float("inf"))
    return {
        "drivers": drivers,
        "duration_s": duration,
        "workers": workers,
        "serial_rps": round(serial.throughput_rps, 1),
        "parallel_rps": round(pooled.throughput_rps, 1),
        "speedup": round(speedup, 2),
    }


def run_metrics_overhead_benchmark(*, drivers: int = 8,
                                   duration: float = 2.0,
                                   repeats: int = 4, seed: int = 7) -> dict:
    """Replay throughput with observability on vs. off.

    The PR-5 acceptance gate is that metrics + tracing cost under
    :data:`METRICS_OVERHEAD_LIMIT` of throughput.  Shared CI hosts swing
    replay throughput by ±25% run to run, so the estimator has to be
    deliberately noise-proof: the two configurations run *interleaved*
    (off, on, off, on …) so slow drift hits both equally, and each takes
    the best of ``repeats`` runs — noise on these hosts only ever slows
    a run down, so the max converges on the true capability of each
    configuration.
    """
    from repro.serving import replay_concurrent_drives

    ensemble, _, _ = inference_models()

    def rps(observability: bool) -> float:
        return replay_concurrent_drives(
            ensemble, drivers=drivers, duration=duration, seed=seed,
            workers=0, observability=observability).throughput_rps

    baseline = 0.0
    instrumented = 0.0
    for _ in range(repeats):
        baseline = max(baseline, rps(False))
        instrumented = max(instrumented, rps(True))
    overhead = 1.0 - instrumented / baseline if baseline else 0.0
    return {
        "drivers": drivers,
        "duration_s": duration,
        "baseline_rps": round(baseline, 1),
        "instrumented_rps": round(instrumented, 1),
        "overhead_fraction": round(overhead, 4),
    }


def run_all(*, quick: bool = False) -> dict:
    """The full benchmark + gate evaluation, as the JSON report dict."""
    cpu_count = os.cpu_count() or 1
    repeats = 2 if quick else 3
    models = run_model_benchmarks(repeats=repeats)
    parallel = run_parallel_benchmark(
        drivers=8 if quick else 16, duration=2.0 if quick else 4.0)
    overhead = run_metrics_overhead_benchmark(
        drivers=8 if quick else 16, duration=2.0 if quick else 4.0,
        repeats=6)
    ensemble_floor = SMOKE_FLOOR if quick else ENSEMBLE_FLOOR
    gates = {
        "ensemble_compiled": {
            "floor": ensemble_floor,
            "value": models["ensemble"]["speedup"],
            "passed": models["ensemble"]["speedup"] >= ensemble_floor,
            "skipped": False,
        },
        "parallel_replay": {
            "floor": PARALLEL_FLOOR,
            "value": parallel["speedup"],
            # A 1-core host cannot speed anything up by adding processes;
            # gate only where the hardware makes the claim testable.
            "passed": (parallel["speedup"] >= PARALLEL_FLOOR
                       if cpu_count >= 2 else None),
            "skipped": cpu_count < 2,
            "cpu_count": cpu_count,
            "status": ("gated" if cpu_count >= 2
                       else f"skipped: single-core host ({cpu_count} cpu)"),
            **({} if cpu_count >= 2 else
               {"reason": "multi-core speedup is untestable on a "
                          f"{cpu_count}-cpu host; parity still holds "
                          "(verdicts are bitwise-identical to workers=0)"}),
        },
        "metrics_overhead": {
            "floor": METRICS_OVERHEAD_LIMIT,
            "value": overhead["overhead_fraction"],
            "unit": "",
            "passed": (overhead["overhead_fraction"]
                       <= METRICS_OVERHEAD_LIMIT),
            "skipped": False,
            "status": "gated (overhead must stay below the limit)",
        },
    }
    try:
        from benchmarks.provenance import host_provenance
    except ImportError:          # script mode: benchmarks/ is sys.path[0]
        from provenance import host_provenance
    return {
        "quick": quick,
        "cpu_count": cpu_count,
        "host": host_provenance(),
        "batch": BATCH,
        "models": models,
        "parallel_replay": parallel,
        "metrics_overhead": overhead,
        "gates": gates,
    }


def format_report(report: dict) -> str:
    """Text form of the JSON report."""
    lines = [
        f"Inference, compiled vs reference — batch {report['batch']}, "
        f"{report['cpu_count']} cpu(s)",
        f"  {'model':<10} {'compiled':>9} {'reference':>10} {'speedup':>8} "
        f"{'im/s':>8} {'lat(b1)':>9}",
    ]
    for name, row in report["models"].items():
        latency = (f"{row['latency_ms']:7.2f}ms" if "latency_ms" in row
                   else f"{'—':>9}")
        lines.append(
            f"  {name:<10} {row['compiled_s']:>8.4f}s "
            f"{row['reference_s']:>9.4f}s "
            f"{row['speedup']:>7.2f}x {row['throughput_ips']:>8.1f} {latency}")
    par = report["parallel_replay"]
    lines.append(
        f"  replay     serial {par['serial_rps']:.1f} rps   "
        f"{par['workers']} workers {par['parallel_rps']:.1f} rps   "
        f"{par['speedup']:.2f}x")
    if "metrics_overhead" in report:
        ovh = report["metrics_overhead"]
        lines.append(
            f"  obs        off {ovh['baseline_rps']:.1f} rps   "
            f"on {ovh['instrumented_rps']:.1f} rps   "
            f"overhead {100 * ovh['overhead_fraction']:.1f}%")
    for name, gate in report["gates"].items():
        verdict = {True: "PASS", False: "FAIL", None: "SKIP"}[gate["passed"]]
        status = gate.get("status", "gated")
        unit = gate.get("unit", "x")
        lines.append(f"  gate {name}: {gate['value']:.2f}{unit} vs floor "
                     f"{gate['floor']:.2f}{unit} — {verdict} ({status})")
    return "\n".join(lines)


def gates_pass(report: dict) -> bool:
    """True when no applicable gate failed (skipped gates don't fail)."""
    return all(gate["passed"] is not False
               for gate in report["gates"].values())


# -- pytest entry points -----------------------------------------------------

def test_inference_compiled_speedup(benchmark):
    """The compiled ensemble clears its floor at batch 32."""
    from benchmarks.conftest import write_report

    report = benchmark.pedantic(lambda: run_all(quick=True),
                                rounds=1, iterations=1)
    write_report("inference", format_report(report))
    assert report["gates"]["ensemble_compiled"]["passed"]


def test_metrics_overhead_within_limit(benchmark):
    """Observability costs under 5% of replay throughput."""
    report = benchmark.pedantic(
        lambda: run_metrics_overhead_benchmark(drivers=8, duration=2.0,
                                               repeats=6),
        rounds=1, iterations=1)
    assert report["overhead_fraction"] <= METRICS_OVERHEAD_LIMIT


def test_parallel_replay_not_slower_than_floor(benchmark):
    """Worker replay clears its floor wherever the host has the cores."""
    report = benchmark.pedantic(
        lambda: run_parallel_benchmark(drivers=8, duration=2.0),
        rounds=1, iterations=1)
    if (os.cpu_count() or 1) >= 2:
        assert report["speedup"] >= PARALLEL_FLOOR
    else:
        assert report["parallel_rps"] > 0  # parallel path works, at least


# -- script entry point (CI bench-inference-smoke job) -----------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short measurement with the 1.2x smoke floor")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_inference.json"))
    args = parser.parse_args(argv)
    report = run_all(quick=args.quick)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(format_report(report))
    print(f"\n[json report written to {args.out}]")
    if not gates_pass(report):
        print("FAIL: an inference gate fell below its floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
