"""Self-tests for the benchmark, at tiny fleet sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import time

import pytest
import run
from checks import Ledger, audit, digest, digest_violations
from spans import Tracer, layer_totals, top_level_time

run.bootstrap()

from workloads import TINY, WORKLOADS  # noqa: E402  (needs bootstrap)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench-cache"))


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(cache, workload, trace):
    record, line = run.run_benchmark(workload, 5, 0.0, trace, sizes=TINY,
                                     cache=cache, min_passes=1)
    assert record["violations"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(line["metrics"]) == list(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(line["metrics"][name]["value"] > 0 for name in expected)
    else:
        assert line["metrics"]["bench.trace.coverage"]["value"] \
            >= run.COVERAGE_MIN


def test_clean_ledger_passes_and_deferred_counts_as_failed():
    ledger = Ledger(requested=["a", "b", "c"], delivered=["a", "b"],
                    deferred=["c"])
    checked = audit(ledger)
    assert checked.violations == []
    assert (checked.attempted, checked.delivered, checked.failed) == (3, 2, 1)


def test_checker_flags_a_dropped_verdict():
    checked = audit(Ledger(requested=["a", "b", "c"], delivered=["a", "c"]))
    assert checked.failed == 1
    assert any("neither delivered nor deferred" in text
               for text in checked.violations)


def test_checker_flags_a_duplicate_delivery():
    checked = audit(Ledger(requested=["a", "b"], delivered=["a", "b", "b"]))
    assert checked.failed == 1
    assert any("duplicate" in text for text in checked.violations)


def test_checker_flags_a_stray_and_a_doubly_resolved_id():
    checked = audit(Ledger(requested=["a", "b"], delivered=["a", "b", "z"],
                           deferred=["b"]))
    assert any("never requested" in text for text in checked.violations)
    assert any("both delivered and deferred" in text
               for text in checked.violations)


def test_checker_flags_a_digest_mismatch():
    same, other = digest(["a:1:0"]), digest(["a:2:0"])
    assert same != other
    assert digest_violations([same, same], None) == []
    assert digest_violations([same, same], same) == []
    assert digest_violations([same, other], None)
    assert digest_violations([same, same], other)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    class Layer:
        def outer(self):
            time.sleep(0.002)
            self.inner()

        def inner(self):
            time.sleep(0.003)

    layer = Layer()
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    start = time.perf_counter()
    layer.outer()
    end = time.perf_counter()
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    totals = layer_totals(tracer.spans)
    assert totals["outer"].busy == pytest.approx(outer.duration)
    assert totals["inner"].calls == 1
    assert top_level_time(tracer.spans, start, end) \
        == pytest.approx(outer.duration)


def test_busy_time_counts_a_recursive_layer_once():
    tracer = Tracer()

    class Combiner:
        def either(self):
            return self.both()

        def both(self):
            return 1

    combiner = Combiner()
    tracer.wrap(combiner, "both", "core.bayesian")
    tracer.wrap(combiner, "either", "core.bayesian")
    combiner.either()
    totals = layer_totals(tracer.spans)["core.bayesian"]
    outer = tracer.spans[-1]
    assert totals.calls == 2
    assert totals.busy == pytest.approx(outer.duration)
