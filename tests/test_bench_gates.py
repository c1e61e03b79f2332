"""The gate engine of ``benchmarks/bench_gates.py``.

Nothing here times anything: the three sections are replaced by canned
results, so these tests check how a gate is judged, which floors each
mode selects, what the record holds and what ``main`` returns.
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
    for name in ("matrix", "serving", "resilience"):
        monkeypatch.setattr(
            bench_gates, f"run_{name}",
            lambda quick, name=name: ({"canned": name}, dict(canned)))
    return canned


def run_main(tmp_path, *argv: str) -> tuple[int, dict]:
    out = tmp_path / "gates.json"
    code = bench_gates.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("quick", [False, True])
def test_each_gate_passes_at_its_floor_and_fails_just_past_it(quick):
    at_floor = floors(quick)
    gates = bench_gates.check_gates(at_floor, quick)
    assert all(gate["passed"] for gate in gates.values())
    for name, (_, _, direction) in bench_gates.GATES.items():
        past = math.nextafter(at_floor[name],
                              -math.inf if direction == "min" else math.inf)
        gates = bench_gates.check_gates({**at_floor, name: past}, quick)
        assert [n for n, gate in gates.items() if not gate["passed"]] == [name]


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
    code, record = run_main(tmp_path, "--quick")
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
            if not gate["passed"]] == ["failover_lost"]


def test_record_has_one_host_block_and_every_section(values, tmp_path):
    _, record = run_main(tmp_path, "--quick")
    assert set(record) == {"quick", "host", "matrix", "serving",
                           "resilience", "gates"}
    assert "blas_thread_caps" in record["host"]
    for name in ("matrix", "serving", "resilience"):
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
