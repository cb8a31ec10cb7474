"""Fixed-seed golden sweeps: every suite's verdicts, both sides and what was checked.

Each file holds `run_suite` output (6 trials, master seed 2024) at full float
precision: `data/golden_sweep.json` for all suites at dims (2, 2, 2), of which
each suite takes its arity, and `data/golden_wide.json` for the optimiser-free
suites at (8, 8), where every weight and state is 64 x 64.  A refactor that
moves a reported side by more than 1e-10 bits, flips a verdict, or changes a
trial's orders, direction or note fails here.  Regenerate only for an
intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
import math
import os

import pytest

from renyi_lab.cli import ALL_SUITES
from renyi_lab.inequalities import run_suite

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_sweep.json")
WIDE = os.path.join(os.path.dirname(__file__), "data", "golden_wide.json")
# file -> (dims, suites)
GOLDEN = {
    DATA: ((2, 2, 2), ALL_SUITES),
    WIDE: ((8, 8), ("general", "rmu", "const-comp", "hall-classical")),
}
SEED = 2024
TRIALS = 6
VALUE_TOL = 1e-10   # bits
ORDERS = ("alpha", "beta", "gamma", "delta")
LABELS = ORDERS + ("direction", "note")   # compared exactly


def _order(x):
    return None if x is None else float(x)


def sweep(tag, dims):
    reports, _ = run_suite(tag, TRIALS, dims, SEED)
    return [{"verdict": r.verdict, "lhs": float(r.lhs), "rhs": float(r.rhs),
             **{k: _order(getattr(r, k)) for k in ORDERS},
             "direction": r.direction, "note": r.note} for r in reports]


def _same(x, y):
    if math.isnan(x) or math.isinf(x):
        return math.isnan(y) if math.isnan(x) else x == y
    return abs(x - y) <= VALUE_TOL


def _identical(x, y):
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return x == y


@functools.cache
def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_golden_covers_every_suite():
    for path, (_, tags) in GOLDEN.items():
        assert list(_load(path)) == list(tags)


def _assert_matches(got, want, tag):
    assert [r["verdict"] for r in got] == [r["verdict"] for r in want]
    for i, (g, w) in enumerate(zip(got, want)):
        for side in ("lhs", "rhs"):
            assert _same(w[side], g[side]), f"{tag} trial {i} {side}: {g[side]!r} vs {w[side]!r}"
        for key in LABELS:
            assert _identical(w[key], g[key]), f"{tag} trial {i} {key}: {g[key]!r} vs {w[key]!r}"


# the (2, 2, 2) cases keep their bare suite names as ids
@pytest.mark.parametrize("path, dims, tag", [
    pytest.param(path, dims, tag, id=tag if path == DATA else f"{tag}-{'x'.join(map(str, dims))}")
    for path, (dims, tags) in GOLDEN.items() for tag in tags])
def test_suite_matches_golden(path, dims, tag):
    _assert_matches(sweep(tag, dims), _load(path)[tag], tag)


def _write(path, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    for path, (dims, tags) in GOLDEN.items():
        _write(path, {tag: sweep(tag, dims) for tag in tags})
