"""Trial report record shared by the inequality and uncertainty harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropies import STOPS
from .orders import REVERSE

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ERROR = "error"   # the trial raised a numerical error; counted as failed

BASE_TOL = 1e-6
WIDE_TOL = 1e-5   # for trials whose gap contains an optimiser output on the shrinking side


@dataclass
class InequalityReport:
    """One verified trial: `small <= big` oriented so gap >= 0 means pass."""

    theorem: str
    trial_seed: int
    dims: tuple[int, ...]
    alpha: float
    beta: float
    gamma: float
    delta: float | None
    direction: str
    lhs: float                  # small side, bits
    rhs: float                  # big side, bits
    gap: float                  # rhs - lhs
    verdict: str
    opt_iters: int = 0
    opt_residual: float = 0.0
    stop: str = ""             # worst stop of the solves in STOPS order, "" without a solve
    note: str = ""


def finish(theorem: str, trial_seed: int, dims, alpha, beta, gamma, delta, direction,
           small: float, big: float, tolerance: float, solves=(), note: str = "") -> InequalityReport:
    """Assemble a report; an infinite side resolves to trivially true or to a fail.
    The report keeps the summed iterations, the largest residual and the worst
    stop of `solves`, the trial's `entropies.OptimizerResult`s.  The tolerance
    widens to `WIDE_TOL` exactly when the trial ran a solve and is reversed,
    which puts the solve on the shrinking side."""
    wide = bool(solves) and direction == REVERSE
    tol = max(tolerance, WIDE_TOL) if wide else tolerance
    if wide and not note:
        note = "tolerance widened for one-sided optimiser bias"
    if math.isnan(small) or math.isnan(big):
        verdict, gap = FAIL, math.nan
    elif math.isinf(big) and big > 0 or math.isinf(small) and small < 0:
        verdict, gap = PASS, math.inf
        note = (note + "; " if note else "") + "divergent side, trivially true"
    elif math.isinf(small) or math.isinf(big):
        verdict, gap = FAIL, -math.inf
    else:
        gap = big - small
        verdict = PASS if gap >= -tol else FAIL
    return InequalityReport(theorem, trial_seed, tuple(dims), alpha, beta, gamma, delta,
                            direction, small, big, gap, verdict, sum(r.iterations for r in solves),
                            max((r.residual for r in solves), default=0.0),
                            max((r.stop for r in solves), key=STOPS.index, default=""), note)


def errored(theorem: str, trial_seed: int, dims, note: str) -> InequalityReport:
    nan = math.nan
    return InequalityReport(theorem, trial_seed, tuple(dims), nan, nan, nan, None, "",
                            nan, nan, nan, ERROR, note=note)


@dataclass
class SuiteSummary:
    theorem: str
    trials: int
    passed: int
    failed: int
    skipped: int
    min_gap: float

    def line(self) -> str:
        return (f"{self.theorem}: {self.passed} pass / {self.failed} fail / "
                f"{self.skipped} skipped out of {self.trials}; min gap {self.min_gap:.3e}")


def summarize(theorem: str, reports) -> SuiteSummary:
    gaps = [r.gap for r in reports if r.verdict != SKIPPED and math.isfinite(r.gap)]
    return SuiteSummary(
        theorem=theorem,
        trials=len(reports),
        passed=sum(r.verdict == PASS for r in reports),
        failed=sum(r.verdict in (FAIL, ERROR) for r in reports),
        skipped=sum(r.verdict == SKIPPED for r in reports),
        min_gap=min(gaps) if gaps else math.inf,
    )
