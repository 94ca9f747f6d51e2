"""Smoke test of the benchmark: tiny runs of every workload, the traced runs'
coverage, two negative controls and the refusal to run without the sources.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "2"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, *extra: str) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", SECONDS,
                 "--trace", str(trace), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(r: dict, declared: list[dict]):
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in r["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    r = result(workload, 0)
    check_shape(r, SPEC["end_to_end"])
    assert r["correct"] and r["failed"] == 0
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_traced_runs_cover_every_named_function(traced):
    for r in traced.values():
        check_shape(r, SPEC["per_layer"])
        assert r["correct"] and r["failed"] == 0
        assert "trace.overhead_frac" in r["metrics"]
    calls = [name for name in traced["verify-desk"]["metrics"]
             if name.endswith(".calls")]
    silent = [name for name in calls
              if all(r["metrics"][name]["value"] == 0 for r in traced.values())]
    assert not silent


def test_weyl_grid_bypasses_intersect_contains_adjoint(traced):
    m = traced["weyl-grid"]["metrics"]
    for name in ("subspaces.intersect", "subspaces.contains", "relations.adjoint"):
        assert m[f"{name}.calls"]["value"] == 0
    assert m["boundary.weyl.calls"]["value"] > 0


@pytest.mark.parametrize("workload, fault", [("pipeline-large", "scaled-as-planted"),
                                             ("weyl-grid", "perturb-weyl")])
def test_negative_control_is_caught(workload, fault):
    r = result(workload, 0, "--inject", fault)
    assert r["failed"] > 0 and not r["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
