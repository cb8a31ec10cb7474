"""The benchmark's three workloads: operations, their inputs and output checks.

A workload hands out one cycle of operations at a time.  Cycles are balanced
(every suite or anchor case once), so a run that stops on a cycle boundary
always measures the same mix.  Inputs come from (seed, phase, cycle, slot)
alone; `renyi_lab` receives only the generated inputs or, for the suite
workloads, the derived master seed that `run_suite` takes.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md next to this file.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from renyi_lab import cli, entropies, inequalities, report, uncertainty

import reference


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation's output."""

    failed: bool               # raised, non-finite, fail verdict, or an impossible value
    missed: bool = False       # further than report.BASE_TOL from its closed form
    err_bits: float | None = None  # signed solve - closed form, anchored solves only


FAILED = Outcome(failed=True)
OK = Outcome(failed=False)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# suite workloads: one op = one run_suite trial
# ---------------------------------------------------------------------------

def _check_reports(result) -> Outcome:
    reports, summary = result
    if summary.failed or len(reports) != 1:
        return FAILED
    r = reports[0]
    if r.verdict == report.SKIPPED:
        return OK
    if r.verdict != report.PASS or math.isnan(r.gap):
        return FAILED
    return OK


class SuiteWorkload:
    """Round-robin over suites, one trial per operation, explore mode off."""

    def __init__(self, suites, dims2, dims3, out_dir: str | None):
        self.suites = tuple(suites)
        self.dims2, self.dims3 = dims2, dims3
        self.out_dir = out_dir
        self.csv_bytes = 0
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

    def _dims(self, tag: str):
        return self.dims3 if tag in ("chain", "chain-dup") else self.dims2

    def _check_and_write(self, tag: str, master: int):
        def check(result) -> Outcome:
            outcome = _check_reports(result)
            if self.out_dir is None or outcome.failed:
                return outcome
            path = os.path.join(self.out_dir, f"{tag}.csv")
            cli.write_csv(path, result[0], master)
            self.csv_bytes += os.path.getsize(path)
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != 1 or rows[0]["verdict"] != result[0][0].verdict:
                return FAILED
            return outcome
        return check

    def cycle(self, seed: int, phase: int, k: int) -> list[Op]:
        ops = []
        for j, tag in enumerate(self.suites):
            master = derived_seed(seed, phase, k, j)
            run = (lambda tag=tag, master=master:
                   inequalities.run_suite(tag, 1, self._dims(tag), master))
            ops.append(Op(tag, run, self._check_and_write(tag, master)))
        return ops


def sweep_qubit(out_dir: str) -> SuiteWorkload:
    return SuiteWorkload(cli.ALL_SUITES, (2, 2), (2, 2, 2), out_dir)


def closed_wide() -> SuiteWorkload:
    return SuiteWorkload(("general", "rmu", "const-comp", "hall-classical"), (8, 8), None, None)


# ---------------------------------------------------------------------------
# solve-anchored: optimised quantities with a closed form
# ---------------------------------------------------------------------------

# Inside the program's alpha ~ 1 window (entropies.ALPHA_ONE_WINDOW = 1e-6);
# the reference is evaluated at this exact order.
ALPHA_NEAR_ONE = 1.0 + 1e-7

# Pure cases use fixed Schmidt spectra with Haar-random local bases, so the
# seed changes the state but not how hard the case is.
SPEC_2 = (0.8, 0.2)
SPEC_2_EVEN = (0.6, 0.4)
SPEC_3 = (0.6, 0.3, 0.1)


@dataclass(frozen=True)
class AnchorCase:
    kind: str             # "pure-H", "classical-H" or "classical-I"
    dims: tuple[int, int]
    alpha: float
    spectrum: tuple[float, ...] = ()   # pure cases: squared Schmidt coefficients
    live: int = 0                      # classical cases: number of y with p(y) > 0

    @property
    def label(self) -> str:
        a = "inf" if math.isinf(self.alpha) else ("1~" if self.alpha == ALPHA_NEAR_ONE else f"{self.alpha:g}")
        deficient = "rd" if self.rank_deficient else "fr"
        return f"{self.kind}:{self.dims[0]}x{self.dims[1]}:{deficient}:a={a}"

    @property
    def rank_deficient(self) -> bool:
        if self.kind == "pure-H":
            return len(self.spectrum) < self.dims[1]
        return self.live < self.dims[1]


INF = math.inf
ANCHOR_CASES = (
    # pure states, optimised block 2 (full rank) and 3 (full rank)
    AnchorCase("pure-H", (2, 2), 0.75, SPEC_2),
    AnchorCase("pure-H", (2, 2), 4.0, SPEC_2),
    AnchorCase("pure-H", (2, 2), INF, SPEC_2),
    AnchorCase("pure-H", (2, 2), ALPHA_NEAR_ONE, SPEC_2),
    AnchorCase("pure-H", (3, 3), 0.75, SPEC_3),
    AnchorCase("pure-H", (3, 3), 2.0, SPEC_3),
    AnchorCase("pure-H", (3, 3), INF, SPEC_3),
    # pure states with a rank-deficient B marginal, optimised block 3 and 4
    AnchorCase("pure-H", (2, 3), 0.75, SPEC_2),
    AnchorCase("pure-H", (2, 3), INF, SPEC_2),
    AnchorCase("pure-H", (2, 4), 2.0, SPEC_2_EVEN),
    AnchorCase("pure-H", (2, 4), 4.0, SPEC_2_EVEN),
    AnchorCase("pure-H", (2, 4), INF, SPEC_2),
    AnchorCase("pure-H", (2, 4), ALPHA_NEAR_ONE, SPEC_2),
    # classical states (Arimoto H^up, Sibson I^up)
    AnchorCase("classical-H", (2, 2), 2.0, live=2),
    AnchorCase("classical-H", (3, 3), 4.0, live=3),
    AnchorCase("classical-H", (2, 4), 0.75, live=4),
    AnchorCase("classical-H", (2, 4), 2.0, live=2),
    AnchorCase("classical-I", (2, 2), 4.0, live=2),
    AnchorCase("classical-I", (3, 3), 0.75, live=3),
    AnchorCase("classical-I", (3, 9), 2.0, live=9),
    AnchorCase("classical-I", (3, 9), ALPHA_NEAR_ONE, live=9),
)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def pure_state(spectrum, dims, rng: np.random.Generator) -> np.ndarray:
    """|psi><psi| with the given squared Schmidt coefficients in Haar bases."""
    da, db = dims
    ua, ub = haar_unitary(da, rng), haar_unitary(db, rng)
    psi = sum(math.sqrt(lam) * np.kron(ua[:, i], ub[:, i]) for i, lam in enumerate(spectrum))
    return np.outer(psi, psi.conj())


def classical_joint(dims, live: int, rng: np.random.Generator) -> np.ndarray:
    """p[x, y] = p(x) p(y|x) with Dirichlet(5) factors; columns y >= live are 0."""
    dx, dy = dims
    p = np.zeros((dx, dy))
    p[:, :live] = rng.dirichlet(5.0 * np.ones(dx))[:, None] * rng.dirichlet(5.0 * np.ones(live), size=dx)
    return p


def _anchor_outcome(value: float, closed: float, maximised: bool) -> Outcome:
    """Compare an optimised value with its closed form.

    A maximised quantity (H^up) can fall short of its closed form but never
    pass it; a minimised one (I^up) the reverse.  Passing it by more than
    report.WIDE_TOL (the program's own allowance for one-sided optimiser
    bias, which also covers the alpha = inf stand-in order) is an impossible
    value, so a failure; any other error above report.BASE_TOL is a miss.
    """
    if not math.isfinite(value):
        return FAILED
    err = value - closed
    beyond = err if maximised else -err
    return Outcome(failed=beyond > report.WIDE_TOL, missed=abs(err) > report.BASE_TOL, err_bits=err)


class SolveAnchored:
    def _op(self, case: AnchorCase, rng: np.random.Generator) -> Op:
        a = case.alpha
        if case.kind == "pure-H":
            rho = pure_state(case.spectrum, case.dims, rng)
            closed = reference.pure_cond_entropy_up(case.spectrum, a)
            if math.isinf(a):
                run = lambda: uncertainty.h_min_cond(rho, case.dims)[0]
            else:
                run = lambda: entropies.cond_entropy_up(rho, a, case.dims).value
            maximised = True
        else:
            p = classical_joint(case.dims, case.live, rng)
            rho = np.diag(p.reshape(-1)).astype(complex)
            if case.kind == "classical-H":
                closed = reference.classical_cond_entropy_up(p, a)
                run = lambda: entropies.cond_entropy_up(rho, a, case.dims).value
                maximised = True
            else:
                closed = reference.classical_mutual_info_up(p, a)
                run = lambda: entropies.mutual_info_up(rho, a, case.dims).value
                maximised = False
        return Op(case.label, run, lambda value: _anchor_outcome(float(value), closed, maximised))

    def cycle(self, seed: int, phase: int, k: int) -> list[Op]:
        return [self._op(case, np.random.default_rng([seed, phase, k, j]))
                for j, case in enumerate(ANCHOR_CASES)]


IMPORTS = {
    "sweep-qubit": ("renyi_lab.cli",),
    "solve-anchored": ("renyi_lab.entropies", "renyi_lab.uncertainty"),
    "closed-wide": ("renyi_lab.inequalities", "renyi_lab.uncertainty"),
}


def make(name: str, out_dir: str):
    if name == "sweep-qubit":
        return sweep_qubit(out_dir)
    if name == "solve-anchored":
        return SolveAnchored()
    if name == "closed-wide":
        return closed_wide()
    raise KeyError(name)
