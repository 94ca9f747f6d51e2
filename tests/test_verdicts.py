"""Suite verdicts pinned on a fixed seed set.

`data/verdicts.json` holds, per seed, each suite's `ok`, `skipped` and
`failures` from `run_suites("all", TRIALS, seed)` under the default policy,
and under "loose" the same for CI's loose policy.  A change that keeps the
mathematics must keep these verdicts; residuals move in roundoff and are
not pinned.  Regenerate (only when a verdict change is intended) with
`PYTHONPATH=src python tests/test_verdicts.py`.
"""

import json
from pathlib import Path

import pytest

from kreinrel.suites import run_suites
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

PINNED = Path(__file__).parent / "data" / "verdicts.json"
SEEDS = (1, 7, 20240811)
TRIALS = 5
# CI's loose step: --tol-rank-rel 1e-3 --tol-rank-abs 1e-6 --tol-angle 1e-4
LOOSE = TolerancePolicy(1e-3, 1e-6, 1e-4)


def verdicts(seed: int, tol: TolerancePolicy = DEFAULT_TOL) -> list:
    return [{"suite": r.suite, "ok": r.ok, "skipped": r.skipped, "failures": r.failures}
            for r in run_suites("all", TRIALS, seed, tol)]


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_match_the_pinned_seed_set(seed):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[str(seed)]
    assert json.loads(json.dumps(verdicts(seed))) == pinned


@pytest.mark.parametrize("seed", SEEDS)
def test_loose_verdicts_match_the_pinned_seed_set(seed):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["loose"][str(seed)]
    assert json.loads(json.dumps(verdicts(seed, LOOSE))) == pinned


if __name__ == "__main__":
    pins = {str(s): verdicts(s) for s in SEEDS}
    pins["loose"] = {str(s): verdicts(s, LOOSE) for s in SEEDS}
    PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
