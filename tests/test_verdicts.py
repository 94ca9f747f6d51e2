"""Suite verdicts pinned on a fixed seed set.

`data/verdicts.json` holds, per seed, each suite's `ok`, `skipped` and
`failures` from `run_suites("all", TRIALS, seed)`.  A change that keeps the
mathematics must keep these verdicts; residuals move in roundoff and are
not pinned.  Regenerate (only when a verdict change is intended) with
`PYTHONPATH=src python tests/test_verdicts.py`.
"""

import json
from pathlib import Path

import pytest

from kreinrel.suites import run_suites

PINNED = Path(__file__).parent / "data" / "verdicts.json"
SEEDS = (1, 7, 20240811)
TRIALS = 5


def verdicts(seed: int) -> list:
    return [{"suite": r.suite, "ok": r.ok, "skipped": r.skipped, "failures": r.failures}
            for r in run_suites("all", TRIALS, seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_match_the_pinned_seed_set(seed):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[str(seed)]
    assert json.loads(json.dumps(verdicts(seed))) == pinned


if __name__ == "__main__":
    PINNED.write_text(json.dumps({str(s): verdicts(s) for s in SEEDS}, indent=1) + "\n",
                      encoding="utf-8")
