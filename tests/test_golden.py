"""Fixed-seed golden sweep: every suite's verdicts and both sides, unchanged.

`data/golden_sweep.json` holds `run_suite` output for all suites (6 trials,
master seed 2024, dims (2, 2, 2), of which each suite takes its arity) at full
float precision.  A refactor that moves a reported side by more than 1e-10
bits, or flips a verdict, fails here.  Regenerate only for an intended change
of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os

import pytest

from renyi_lab.cli import ALL_SUITES
from renyi_lab.inequalities import run_suite

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_sweep.json")
SEED = 2024
TRIALS = 6
VALUE_TOL = 1e-10   # bits


def sweep(tag):
    reports, _ = run_suite(tag, TRIALS, (2, 2, 2), SEED)
    return [{"verdict": r.verdict, "lhs": float(r.lhs), "rhs": float(r.rhs)} for r in reports]


def _same(x, y):
    if math.isnan(x) or math.isinf(x):
        return math.isnan(y) if math.isnan(x) else x == y
    return abs(x - y) <= VALUE_TOL


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


def test_golden_covers_every_suite(golden):
    assert list(golden) == list(ALL_SUITES)


@pytest.mark.parametrize("tag", ALL_SUITES)
def test_suite_matches_golden(golden, tag):
    got = sweep(tag)
    want = golden[tag]
    assert [r["verdict"] for r in got] == [r["verdict"] for r in want]
    for i, (g, w) in enumerate(zip(got, want)):
        for side in ("lhs", "rhs"):
            assert _same(w[side], g[side]), f"{tag} trial {i} {side}: {g[side]!r} vs {w[side]!r}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump({tag: sweep(tag) for tag in ALL_SUITES}, fh, indent=1)
        fh.write("\n")
