"""Backends x models x batch-size inference matrix.

Sweeps the compiled backend over every deployable model (CNN, RNN, full
ensemble, and the three privacy dCNN students) at batch sizes
{1, 8, 32, 128}, measuring wall time against the ``reference`` backend
(the plain layer forward) and checking parity.  The committed
``BENCH_matrix.json`` is the acceptance record for compiled plans as the
one serving inference path:

* ``numpy-compiled`` must stay within ``PARITY_ATOL`` (1e-5) of the
  reference forward for every float32 model — the parity section
  records the max abs diff;
* at batch 32, the compiled RNN must clear ``RNN_FLOOR`` (2x) and the
  compiled ensemble ``ENSEMBLE_FLOOR`` (5x) over the reference path;
* ``numpy-compiled-int8`` is lossy by contract and is gated only on
  verdict-class agreement with the float plans.

Runs under pytest (explicitly: ``pytest benchmarks/bench_matrix.py``)
or as the CI bench-matrix-smoke script::

    PYTHONPATH=src python benchmarks/bench_matrix.py --quick

which writes the JSON report and exits non-zero on any gate failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time

import numpy as np

try:
    from benchmarks.bench_inference import inference_models
    from benchmarks.provenance import host_provenance
except ImportError:              # script mode: benchmarks/ is sys.path[0]
    from bench_inference import inference_models
    from provenance import host_provenance

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Batch sizes swept per (backend, model) cell.
BATCHES = (1, 8, 32, 128)
QUICK_BATCHES = (1, 32)
#: The batch every speedup gate is evaluated at.
GATE_BATCH = 32

#: Compiled-vs-reference floors at the gate batch (full / --quick smoke).
RNN_FLOOR = 2.0
RNN_SMOKE_FLOOR = 1.2
ENSEMBLE_FLOOR = 5.0
ENSEMBLE_SMOKE_FLOOR = 2.0
#: Float32 plans agree with the reference forward to float32 rounding.
PARITY_ATOL = 1e-5
#: Minimum verdict-class agreement for the lossy int8 plans.
INT8_AGREEMENT_FLOOR = 0.97

COMPILED = "numpy-compiled"


def _best_seconds(fn, *, repeats: int) -> float:
    """Best-of-N wall time after two untimed warmup calls.

    The collector is paused around the timed region so a cycle sweep
    landing mid-call cannot inflate a cell; best-of-N then discards the
    scheduler noise a shared host adds on top.
    """
    fn()
    fn()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


class MatrixRunner:
    """One full sweep: forwards per model, cells per (backend, batch).

    Timing always goes through the public predict surface
    (``predict_proba`` / ``predict_logits`` / ``predict_degraded``) so a
    cell measures what serving dispatch would pay, not a bare forward.
    """

    def __init__(self, *, quick: bool = False) -> None:
        self.quick = quick
        self.repeats = 2 if quick else 9
        self.batches = QUICK_BATCHES if quick else BATCHES
        ensemble, students, dataset = inference_models()
        self.ensemble = ensemble
        self.students = students
        # The seed dataset has 90 samples; tile it so batch 128 is real.
        tile = int(np.ceil(max(self.batches) / len(dataset.images)))
        self.images = np.concatenate([dataset.images] * tile, axis=0)
        self.windows = np.concatenate([dataset.imu] * tile, axis=0)

    def model_names(self) -> list[str]:
        return ["cnn", "rnn", "ensemble"] + sorted(self.students)

    def forward(self, model: str, batch: int) -> np.ndarray:
        """One batched inference; returns the probability/logit matrix."""
        images = self.images[:batch]
        windows = self.windows[:batch]
        if model == "cnn":
            return self.ensemble.cnn.predict_proba(images)
        if model == "rnn":
            return self.ensemble.imu_model.predict_proba(windows)
        if model == "ensemble":
            return self.ensemble.predict_degraded(
                images=images, imu=windows).probabilities
        return self.students[model].predict_logits(images)

    # -- sections ---------------------------------------------------------
    def run_matrix(self) -> dict:
        """Wall-time cells: reference and compiled, per batch."""
        from repro.nn import using_backend

        matrix: dict[str, dict] = {}
        for model in self.model_names():
            rows = {}
            for batch in self.batches:
                def fwd(m=model, b=batch):
                    return self.forward(m, b)

                with using_backend("reference"):
                    reference = _best_seconds(fwd, repeats=self.repeats)
                with using_backend(COMPILED):
                    seconds = _best_seconds(fwd, repeats=self.repeats)
                rows[f"batch_{batch}"] = {
                    "reference_s": round(reference, 5),
                    f"{COMPILED}_s": round(seconds, 5),
                    f"{COMPILED}_speedup": round(reference / seconds, 2),
                }
            matrix[model] = rows
        return matrix

    def run_parity(self) -> dict:
        """Max abs diff of numpy-compiled vs the reference, per model."""
        from repro.nn import using_backend

        batch = max(self.batches)
        parity = {}
        for model in self.model_names():
            with using_backend("reference"):
                reference = self.forward(model, batch)
            with using_backend(COMPILED):
                compiled = self.forward(model, batch)
            parity[model] = {
                "batch": batch,
                "max_abs_diff": float(np.max(np.abs(reference - compiled))),
            }
        return parity

    def run_int8(self) -> dict:
        """Verdict-class agreement of the int8 plans, per dCNN level.

        int8 is scoped to the distilled privacy students: lower fidelity
        is already their contract, so the agreement gate extends it.
        """
        from repro.nn import using_backend

        count = len(self.images)
        results = {}
        for model in sorted(self.students):
            with using_backend(COMPILED):
                compiled = self.forward(model, count)
            with using_backend("numpy-compiled-int8"):
                int8 = self.forward(model, count)
            agreement = float(np.mean(
                compiled.argmax(axis=1) == int8.argmax(axis=1)))
            results[model] = {
                "samples": count,
                "verdict_agreement": round(agreement, 4),
                "max_abs_logit_diff": round(
                    float(np.max(np.abs(compiled - int8))), 5),
            }
        return results

    def run_all(self) -> dict:
        matrix = self.run_matrix()
        parity = self.run_parity()
        int8 = self.run_int8()
        gates = self._gates(matrix, parity, int8)
        return {
            "quick": self.quick,
            "host": host_provenance(),
            "gate_batch": GATE_BATCH,
            "batches": list(self.batches),
            "backends": ["reference", COMPILED, "numpy-compiled-int8"],
            "matrix": matrix,
            "parity": parity,
            "int8": int8,
            "gates": gates,
        }

    def _gates(self, matrix: dict, parity: dict, int8: dict) -> dict:
        quick = self.quick
        cell = f"batch_{GATE_BATCH}"
        rnn_floor = RNN_SMOKE_FLOOR if quick else RNN_FLOOR
        ens_floor = ENSEMBLE_SMOKE_FLOOR if quick else ENSEMBLE_FLOOR
        rnn_speedup = matrix["rnn"][cell][f"{COMPILED}_speedup"]
        ens_speedup = matrix["ensemble"][cell][f"{COMPILED}_speedup"]
        worst_parity = max(parity.values(), key=lambda p: p["max_abs_diff"])
        worst_agreement = (min(row["verdict_agreement"]
                               for row in int8.values()) if int8 else 1.0)
        return {
            "compiled_rnn_speedup": {
                "floor": rnn_floor,
                "value": rnn_speedup,
                "passed": rnn_speedup >= rnn_floor,
            },
            "compiled_ensemble_speedup": {
                "floor": ens_floor,
                "value": ens_speedup,
                "passed": ens_speedup >= ens_floor,
            },
            "float_backend_parity": {
                "floor": PARITY_ATOL,
                "value": worst_parity["max_abs_diff"],
                "unit": "",
                "passed": worst_parity["max_abs_diff"] <= PARITY_ATOL,
            },
            "int8_verdict_agreement": {
                "floor": INT8_AGREEMENT_FLOOR,
                "value": worst_agreement,
                "unit": "",
                "passed": worst_agreement >= INT8_AGREEMENT_FLOOR,
            },
        }


def gates_pass(report: dict) -> bool:
    return all(gate["passed"] for gate in report["gates"].values())


def format_report(report: dict) -> str:
    lines = [
        f"Backend matrix — gate batch {report['gate_batch']}, "
        f"backends {', '.join(report['backends'])}",
        f"  {'model':<10} {'batch':>5} {'reference':>10} "
        f"{'compiled':>9} {'cmp/ref':>8}",
    ]
    for model, rows in report["matrix"].items():
        for key, row in rows.items():
            batch = key.split("_", 1)[1]
            lines.append(
                f"  {model:<10} {batch:>5} {row['reference_s']:>9.4f}s "
                f"{row[f'{COMPILED}_s']:>8.4f}s "
                f"{row[f'{COMPILED}_speedup']:>7.2f}x")
    for model, row in report["parity"].items():
        lines.append(f"  parity {model}: max|diff| vs reference="
                     f"{row['max_abs_diff']:g}")
    for model, row in report["int8"].items():
        lines.append(f"  int8 {model}: verdict agreement "
                     f"{100 * row['verdict_agreement']:.1f}% over "
                     f"{row['samples']} samples")
    for name, gate in report["gates"].items():
        verdict = "PASS" if gate["passed"] else "FAIL"
        unit = gate.get("unit", "x")
        lines.append(f"  gate {name}: {gate['value']:g}{unit} vs floor "
                     f"{gate['floor']:g}{unit} — {verdict}")
    return "\n".join(lines)


# -- pytest entry point ------------------------------------------------------

def test_backend_matrix_gates(benchmark):
    """Every backend-matrix gate holds in quick mode."""
    from benchmarks.conftest import write_report

    report = benchmark.pedantic(
        lambda: MatrixRunner(quick=True).run_all(), rounds=1, iterations=1)
    write_report("matrix", format_report(report))
    failed = [name for name, gate in report["gates"].items()
              if not gate["passed"]]
    assert not failed, f"backend matrix gates failed: {failed}"


# -- script entry point (CI bench-matrix-smoke job) --------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short sweep with the smoke floors")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_matrix.json"))
    args = parser.parse_args(argv)
    report = MatrixRunner(quick=args.quick).run_all()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(format_report(report))
    print(f"\n[json report written to {args.out}]")
    if not gates_pass(report):
        print("FAIL: a backend-matrix gate fell below its floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
