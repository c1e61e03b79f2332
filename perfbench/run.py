"""DarNet verdict-path benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-replay --seed 1 --seconds 20 --trace 0

Without ``--workload`` it runs all three workloads.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries provenance, the verdict digest
and every audit.  The exit code is non-zero when a correctness check
fails.  See ``perfbench/README.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

#: BLAS thread caps; with none set, the benchmark runs one BLAS thread.
#: Two threads on a shared 2-CPU host made the forward's time track the
#: neighbours' load instead of the code.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
CACHE = os.path.join(HERE, ".cache")

WORKLOAD_NAMES = ("fleet-replay", "supervised-mixed", "edge-fleet")
#: One 4 Hz grid period: a verdict later than this is stale.
LATENCY_LIMIT_MS = 250.0
#: Top-level spans must cover at least this share of the traced loop.
COVERAGE_MIN = 0.95
#: Untraced passes a run makes at least, whatever ``--seconds`` says; a
#: traced run needs only enough untraced passes to measure its overhead.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = {
    "verdicts_per_s": "verdicts/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "delivered_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "nn.cnn.calls": "count", "nn.cnn.busy_s": "s", "nn.cnn.us_per_row": "us",
    "nn.rnn.calls": "count", "nn.rnn.busy_s": "s", "nn.rnn.us_per_row": "us",
    "core.ensemble.calls": "count", "core.ensemble.rows": "rows",
    "core.ensemble.self_s": "s", "core.bayesian.busy_s": "s",
    "core.model_store.load_s": "s",
    "serving.sessions.ingest_calls": "count", "serving.sessions.ingest_s": "s",
    "serving.admission.requests": "count", "serving.admission.self_s": "s",
    "serving.admission.refused": "count",
    "serving.scheduler.batches": "count",
    "serving.scheduler.rows_per_batch": "rows",
    "serving.scheduler.submit_s": "s", "serving.scheduler.flush_s": "s",
    "serving.scheduler.queue_wait_p50_ms": "ms",
    "serving.server.step_self_s": "s",
    "serving.supervisor.step_self_s": "s",
    "serving.checkpoint.takes": "count", "serving.checkpoint.busy_s": "s",
    "serving.journal.appends": "count", "serving.journal.append_s": "s",
    "serving.journal.syncs": "count", "serving.journal.sync_s": "s",
    "serving.journal.bytes": "B",
    "edge.spool.recover_s": "s",
    "edge.spool.appends": "count", "edge.spool.append_s": "s",
    "edge.spool.syncs": "count", "edge.spool.sync_s": "s",
    "edge.spool.acks": "count", "edge.spool.ack_s": "s",
    "edge.spool.pending_s": "s", "edge.spool.peak_depth": "records",
    "edge.agent.ticks": "count", "edge.agent.self_s": "s",
    "edge.uploader.step_self_s": "s", "edge.uploader.resends": "count",
    "edge.uplink.poll_self_s": "s",
    "streaming.reliability.transmissions": "count",
    "streaming.reliability.useful_frac": "ratio",
    "bench.trace.coverage": "ratio",
    "bench.trace.overhead_frac": "ratio",
}


def bootstrap() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def source_digest(*roots: str) -> str:
    """A hash of the ``.py`` and ``.json`` files under ``roots``.

    Over the package it keys the model cache; over the package and the
    benchmark it keys the recorded verdict digests.
    """
    sha = hashlib.sha256()
    for root in roots:
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(name for name in dirs if not name.startswith("."))
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(base, name)
                    sha.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        sha.update(handle.read())
    return sha.hexdigest()[:12]


@dataclass(frozen=True)
class Models:
    root: str

    @property
    def base(self) -> str:
        return os.path.join(self.root, "base")

    @property
    def extended(self) -> str:
        return os.path.join(self.root, "extended")


def build_models(root: str) -> None:
    """Train and save the two models (fixed seeds, one token epoch).

    ``base`` is what ``repro train`` ships at one epoch: the default
    CNN+BiLSTM architecture.  ``extended`` is the 8-class heads the CLI
    trains on the mixed-fleet spec's own windows.
    """
    import numpy as np

    from repro.core import (
        CnnConfig,
        DarNetEnsemble,
        RnnConfig,
        save_ensemble,
    )
    from repro.datasets import generate_driving_dataset
    from repro.scenarios import (
        ScenarioSpec,
        scenario_training_set,
        train_extended_ensemble,
    )
    from workloads import MIXED_SPEC

    staging = f"{root}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    rng = np.random.default_rng(0)
    base = DarNetEnsemble("cnn+rnn", cnn_config=CnnConfig(epochs=1),
                          rnn_config=RnnConfig(epochs=2), rng=rng)
    base.fit(generate_driving_dataset(120, rng=rng))
    save_ensemble(base, os.path.join(staging, "base"))
    extended = train_extended_ensemble(
        scenario_training_set(ScenarioSpec.load(MIXED_SPEC)),
        cnn_config=CnnConfig(epochs=1), rnn_config=RnnConfig(epochs=2),
        rng=np.random.default_rng(0))
    save_ensemble(extended, os.path.join(staging, "extended"))
    try:
        os.replace(staging, root)
    except OSError:      # another run finished first; its models win
        shutil.rmtree(staging, ignore_errors=True)


def ensure_models(cache: str) -> Models:
    """The cached models for this source tree, trained once per checkout.

    Training runs in a child process so it never shows in this process's
    peak memory.
    """
    models = Models(os.path.join(cache, f"models-{source_digest(PACKAGE)}"))
    if not os.path.isdir(models.root):
        os.makedirs(cache, exist_ok=True)
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--build-models", models.root],
                       check=True, timeout=600, stdout=sys.stderr)
    return models


def host_info(seed: int) -> dict:
    from benchmarks.provenance import host_provenance

    info = host_provenance()
    info["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["nproc"] = len(os.sched_getaffinity(0))
    info["source_digest"] = source_digest(PACKAGE)
    info["seed"] = seed
    return info


@dataclass
class Pass:
    traced: bool
    setup_s: float
    setup_start: float
    result: object
    tracer: object


def run_pass(workload, traced: bool) -> Pass:
    from spans import Tracer

    workload.reset()
    # Commit the previous pass's deletions and the fresh input files now,
    # so their writeback and discards do not land in the timed loop.
    os.sync()
    gc.collect()
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    state = workload.setup(tracer)
    setup_s = time.perf_counter() - start
    return Pass(traced, setup_s, start, workload.run(state, tracer), tracer)


def layer_metrics(done: Pass) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    from spans import layer_totals, top_level_time

    result = done.result
    kept = [span for span in done.tracer.spans
            if done.setup_start <= span.start
            and (span.start < result.loop_start
                 or span.end <= result.loop_end)]
    totals = layer_totals(kept)
    counters = result.counters

    def get(name: str, field: str) -> float:
        entry = totals.get(name)
        return getattr(entry, field) if entry is not None else 0

    def per_row(name: str) -> float:
        rows = get(name, "rows")
        return 1e6 * get(name, "busy") / rows if rows else 0.0

    batches = counters.get("batches", 0)
    transmissions = counters.get("transmissions", 0)
    loop = [span for span in kept if span.start >= result.loop_start]
    return {
        "nn.cnn.calls": get("nn.cnn", "calls"),
        "nn.cnn.busy_s": get("nn.cnn", "busy"),
        "nn.cnn.us_per_row": per_row("nn.cnn"),
        "nn.rnn.calls": get("nn.rnn", "calls"),
        "nn.rnn.busy_s": get("nn.rnn", "busy"),
        "nn.rnn.us_per_row": per_row("nn.rnn"),
        "core.ensemble.calls": get("core.ensemble", "calls"),
        "core.ensemble.rows": get("core.ensemble", "rows"),
        "core.ensemble.self_s": get("core.ensemble", "self_time"),
        "core.bayesian.busy_s": get("core.bayesian", "busy"),
        "core.model_store.load_s": get("core.model_store.load", "busy"),
        "serving.sessions.ingest_calls": get("serving.sessions.ingest",
                                             "calls"),
        "serving.sessions.ingest_s": get("serving.sessions.ingest", "busy"),
        "serving.admission.requests": get("serving.admission", "calls"),
        "serving.admission.self_s": get("serving.admission", "self_time"),
        "serving.admission.refused": counters.get("admission_refused", 0),
        "serving.scheduler.batches": batches,
        "serving.scheduler.rows_per_batch": (
            counters["batch_rows"] / batches if batches else 0.0),
        "serving.scheduler.submit_s": get("serving.scheduler.submit", "busy"),
        "serving.scheduler.flush_s": get("serving.scheduler.flush", "busy"),
        "serving.scheduler.queue_wait_p50_ms": counters.get(
            "queue_wait_p50_ms", 0.0),
        "serving.server.step_self_s": get("serving.server.step", "self_time"),
        "serving.supervisor.step_self_s": get("serving.supervisor.step",
                                              "self_time"),
        "serving.checkpoint.takes": get("serving.checkpoint.take", "calls"),
        "serving.checkpoint.busy_s": get("serving.checkpoint.take", "busy"),
        "serving.journal.appends": get("serving.journal.append", "calls"),
        "serving.journal.append_s": get("serving.journal.append",
                                        "self_time"),
        "serving.journal.syncs": get("serving.journal.sync", "calls"),
        "serving.journal.sync_s": get("serving.journal.sync", "busy"),
        "serving.journal.bytes": counters.get("journal_bytes", 0),
        "edge.spool.recover_s": get("edge.spool.open", "busy"),
        "edge.spool.appends": get("edge.spool.append", "calls"),
        "edge.spool.append_s": get("edge.spool.append", "self_time"),
        "edge.spool.syncs": get("edge.spool.sync", "calls"),
        "edge.spool.sync_s": get("edge.spool.sync", "busy"),
        "edge.spool.acks": get("edge.spool.ack", "calls"),
        "edge.spool.ack_s": get("edge.spool.ack", "busy"),
        "edge.spool.pending_s": get("edge.spool.pending", "busy"),
        "edge.spool.peak_depth": counters.get("spool_peak_depth", 0),
        "edge.agent.ticks": get("edge.agent.step", "calls"),
        "edge.agent.self_s": get("edge.agent.step", "self_time"),
        "edge.uploader.step_self_s": get("edge.uploader.step", "self_time"),
        "edge.uploader.resends": counters.get("uploader_resends", 0),
        "edge.uplink.poll_self_s": get("edge.uplink.poll", "self_time"),
        "streaming.reliability.transmissions": transmissions,
        "streaming.reliability.useful_frac": (
            counters["acked"] / transmissions if transmissions else 0.0),
        "bench.trace.coverage": top_level_time(
            loop, result.loop_start, result.loop_end) / result.loop_s,
    }


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def typical_pass(passes: list[Pass]) -> tuple[float, list[float], list[str]]:
    """Loop seconds and verdict latencies of a typical pass.

    Every pass replays the same windows and delivers the same verdicts,
    so each window's time and each verdict's latency is taken as its
    median across the passes: interference from the rest of the host
    that hits one pass in one window does not move the result.
    """
    problems = []
    windows = [done.result.clock.windows for done in passes]
    if len({len(timed) for timed in windows}) != 1:
        problems.append("passes replayed different numbers of windows")
    loop_s = sum(statistics.median(column) for column in zip(*windows))
    keys = passes[0].result.latencies.keys()
    if any(done.result.latencies.keys() != keys for done in passes):
        problems.append("passes delivered different verdicts")
    latencies = [statistics.median(done.result.latencies.get(key, 0.0)
                                   for done in passes) for key in keys]
    return loop_s, latencies, problems


def run_benchmark(workload_name: str, seed: int, seconds: float,
                  trace: bool, *, sizes=None, cache: str = CACHE,
                  min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """Run one workload; returns (the full record, the result line)."""
    from checks import audit, digest, digest_violations
    from workloads import WORKLOADS, Sizes

    models = ensure_models(cache)
    workdir = os.path.join(cache, "work", f"{workload_name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[workload_name](seed, sizes or Sizes(), models,
                                            workdir)
        passes: list[Pass] = []
        spent = 0.0
        while True:
            # A traced run alternates traced and untraced passes, flipping
            # which goes first, so both sides see the same warm-up.
            flips = sum(done.traced for done in passes) % 2
            plan = [False] if not trace else [bool(flips), not flips]
            for traced in plan:
                done = run_pass(workload, traced)
                passes.append(done)
                spent += done.setup_s + done.result.loop_s
            plain = [done for done in passes if not done.traced]
            needed = min(min_passes, MIN_TRACED_PASSES) if trace else min_passes
            if spent >= seconds and len(plain) >= needed:
                break
        if trace:
            traced = [done for done in passes if done.traced]
            traced[-1].tracer.write(os.path.join(
                cache, f"spans-{workload_name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    audits = [audit(done.result.ledger) for done in passes]
    violations = [f"pass {index}: {text}"
                  for index, (done, checked) in enumerate(zip(passes, audits))
                  for text in checked.violations + done.result.violations]
    attempted = sum(checked.attempted for checked in audits)
    failed = sum(checked.failed for checked in audits)
    digests = [digest(done.result.ledger.stream) for done in passes]
    record_path = os.path.join(
        cache, "digests",
        f"{source_digest(PACKAGE, HERE)}-{workload_name}-seed{seed}.txt")
    recorded = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as handle:
            recorded = handle.read().strip()
    violations += digest_violations(digests, recorded)
    if recorded is None and not violations:
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        with open(record_path, "w", encoding="utf-8") as handle:
            handle.write(digests[0] + "\n")

    plain = [done for done in passes if not done.traced]
    loop_s, latencies, problems = typical_pass(plain)
    violations += problems
    latencies_ms = [1e3 * value for value in latencies]
    delivered = [checked.delivered
                 for done, checked in zip(passes, audits) if not done.traced]
    asked = sum(len(done.result.ledger.requested) for done in plain)
    p99 = percentile(latencies_ms, 99)
    end_to_end = {
        "verdicts_per_s": statistics.median(delivered) / loop_s,
        "verdict_p50_ms": percentile(latencies_ms, 50),
        "verdict_p99_ms": p99,
        "delivered_frac": sum(delivered) / asked if asked else 0.0,
        "setup_s": statistics.median(done.setup_s for done in plain),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if trace:
        traced = [done for done in passes if done.traced]
        per_pass = [layer_metrics(done) for done in traced]
        per_layer = {name: statistics.median(values[name]
                                             for values in per_pass)
                     for name in per_pass[0]}
        per_layer["bench.trace.overhead_frac"] = (
            typical_pass(traced)[0] / loop_s - 1.0)
        low = min(values["bench.trace.coverage"] for values in per_pass)
        if low < COVERAGE_MIN:
            violations.append(
                f"top-level spans cover {low:.3f} of the traced loop, "
                f"below the {COVERAGE_MIN} the benchmark requires")
    shown = per_layer if trace else end_to_end
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": trace,
        "passes": len(plain),
        "per_pass": [{"traced": done.traced, "setup_s": done.setup_s,
                      "loop_s": done.result.loop_s,
                      "delivered": checked.delivered}
                     for done, checked in zip(passes, audits)],
        "traced_passes": len(passes) - len(plain),
        "digest": digests[0],
        "violations": violations,
        "failed_frac": failed / attempted if attempted else 0.0,
        "latency_samples": len(latencies_ms),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "meets_latency_limit": p99 <= LATENCY_LIMIT_MS,
        "drivers_at_4hz": end_to_end["verdicts_per_s"] / 4.0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "coverage_min": COVERAGE_MIN if trace else None,
        "host": host_info(seed),
    }
    return record, line


def format_record(record: dict) -> str:
    lines = [f"perfbench {record['workload']}  seed {record['host']['seed']}"
             f"  {record['passes']} passes"
             + (f" + {record['traced_passes']} traced"
                if record["trace"] else "")
             + f"  digest {record['digest']}"]
    for name, value in record["end_to_end"].items():
        lines.append(f"  {name:<16} {value:12.4f} {END_TO_END[name]}")
    lines.append(f"  failed_frac      {record['failed_frac']:12.4f} ratio")
    verdict = "meets" if record["meets_latency_limit"] else "MISSES"
    lines.append(f"  p99 {verdict} the {LATENCY_LIMIT_MS:.0f} ms limit over "
                 f"{record['latency_samples']} verdicts; one process keeps "
                 f"up with {record['drivers_at_4hz']:.0f} drivers at 4 Hz")
    for name, value in record["per_layer"].items():
        lines.append(f"  {name:<38} {value:14.6f} {PER_LAYER[name]}")
    for text in record["violations"]:
        lines.append(f"  VIOLATION {text}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="the workload to run (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-models", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Before numpy loads: BLAS reads its thread cap once, at import.
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    bootstrap()
    if args.build_models:
        build_models(args.build_models)
        return 0
    if args.workload is None:
        # One process per workload, so each peak_rss_mb is its own.
        failed = 0
        for name in WORKLOAD_NAMES:
            sys.stdout.flush()
            failed += subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]).returncode != 0
        return 1 if failed else 0
    record, line = run_benchmark(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print(format_record(record))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
