"""The gate engine of ``benchmarks/bench_gates.py``.

Nothing here trains or times anything: the four sections are replaced
by canned results, so these tests check how a gate is judged, which
floors each mode selects, what the record holds and what ``main``
returns.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks import bench_gates
from perfbench.run import BLAS_THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def floors(quick: bool) -> dict:
    return {name: row[1 if quick else 0]
            for name, row in bench_gates.GATES.items()}


@pytest.fixture
def values(monkeypatch):
    """Canned sections reporting these gate values, each at its full
    floor until a test edits them."""
    canned = floors(quick=False)
    for name in ("matrix", "serving", "resilience", "paper"):
        monkeypatch.setattr(
            bench_gates, f"run_{name}",
            lambda quick, name=name: ({"canned": name}, dict(canned)))
    return canned


def run_main(tmp_path, *argv: str) -> tuple[int, dict]:
    out = tmp_path / "gates.json"
    code = bench_gates.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def toward_failing(name: str) -> float:
    return -math.inf if bench_gates.GATES[name][2] == "min" else math.inf


@pytest.mark.parametrize("quick", [False, True])
def test_each_gate_passes_at_its_floor_and_fails_just_past_it(quick):
    # A row with no floor in this mode takes its full floor: any value.
    at_floor = {**floors(False), **{name: floor for name, floor
                                    in floors(quick).items()
                                    if floor is not None}}
    judged = [name for name, floor in floors(quick).items()
              if floor is not None]
    gates = bench_gates.check_gates(at_floor, quick)
    assert all(gates[name]["passed"] for name in judged)
    for name in judged:
        past = math.nextafter(at_floor[name], toward_failing(name))
        gates = bench_gates.check_gates({**at_floor, name: past}, quick)
        assert [n for n, gate in gates.items()
                if gate["passed"] is False] == [name]


def test_a_row_without_a_quick_floor_skips_quick_and_is_judged_full(
        values, tmp_path):
    unjudged = [name for name, row in bench_gates.GATES.items()
                if row[1] is None]
    assert unjudged
    for name in unjudged:
        values[name] += 1.0 if toward_failing(name) > 0 else -1.0
    code, record = run_main(tmp_path, "--quick")
    assert code == 0
    for name in unjudged:
        assert record["gates"][name]["passed"] is None
        assert record["gates"][name]["skipped"] == bench_gates.SMOKE_SKIP
    code, record = run_main(tmp_path)
    assert code == 1
    assert [name for name, gate in record["gates"].items()
            if gate["passed"] is False] == unjudged


def test_quick_selects_the_quick_floors(values, tmp_path):
    for argv, quick in (((), False), (("--quick",), True)):
        _, record = run_main(tmp_path, *argv)
        assert record["quick"] is quick
        assert {name: gate["floor"] for name, gate in
                record["gates"].items()} == floors(quick)


def test_a_value_between_the_floors_passes_only_quick(values, tmp_path):
    values["serving_batched_speedup"] = 2.0
    assert run_main(tmp_path, "--quick")[0] == 0
    assert run_main(tmp_path)[0] == 1


def test_main_exits_0_when_every_gate_passes(values, tmp_path, capsys):
    code, record = run_main(tmp_path)
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    assert all(gate["passed"] for gate in record["gates"].values())


def test_main_prints_fail_and_exits_1_when_a_gate_fails(values, tmp_path,
                                                        capsys):
    values["failover_lost"] = 1
    code, record = run_main(tmp_path, "--quick")
    assert code == 1
    assert "FAIL: failover_lost" in capsys.readouterr().out
    assert [name for name, gate in record["gates"].items()
            if gate["passed"] is False] == ["failover_lost"]


def test_record_has_one_host_block_and_every_section(values, tmp_path):
    _, record = run_main(tmp_path, "--quick")
    assert set(record) == {"quick", "host", "matrix", "serving",
                           "resilience", "paper", "gates"}
    assert "blas_thread_caps" in record["host"]
    for name in ("matrix", "serving", "resilience", "paper"):
        assert record[name] == {"canned": name}
    assert set(record["gates"]) == set(bench_gates.GATES)


def test_importing_the_runner_sets_no_environment_variable():
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARS}
    code = ("import os; before = dict(os.environ); "
            "import benchmarks.bench_gates; "
            "assert dict(os.environ) == before, 'import changed os.environ'")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True, timeout=120)
