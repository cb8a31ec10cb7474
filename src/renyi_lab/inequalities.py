"""Randomized verification harness for the divergence chain/decomposition
inequalities.

Every suite compares two Renyi expressions as `small <= big` (gap = big - small
>= 0 passes).  A trial computes its forward sides and swaps them when its
direction is reverse: 1/beta + 1/gamma > 2 for a triple, and delta above the
other orders for noncond.
"""

from __future__ import annotations

import numpy as np

from . import report, uncertainty
from .entropies import (
    ALPHA_ONE_WINDOW,
    cond_entropy_up,
    gen_cond_entropy,
    gen_mutual_info,
    mutual_info_down,
    renyi_entropy,
    _divergence_any_order,
    _tr_log2,
)
from .linalg import as_layout, frac_power, kron_eigh, partial_trace, psd_eigh, swap_bipartite
from .orders import FORWARD, REVERSE, hconj, noncond_orders, sample_triple
from .report import InequalityReport, finish, summarize
from .states import (DensityOperator, density_from_factor, random_density, random_density_factor,
                     random_pure, trial_rng)


def _entropy_weight_term(gamma: float, rho_marg: np.ndarray, sigma: np.ndarray) -> float:
    """log (tr rho sigma^(1/gamma'))^(gamma'), the non-optimised entropy term."""
    if abs(gamma - 1.0) <= ALPHA_ONE_WINDOW:
        return float(_tr_log2(rho_marg, psd_eigh(sigma)))
    gp = hconj(gamma)
    return gp * float(np.log2(np.real(np.trace(rho_marg @ frac_power(sigma, 1.0 / gp)))))


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _rank_deficient_pair(rng, da: int, db: int):
    """(rho, tau) with tau rank-deficient on the weighted subsystem but
    dominating rho, exercising the pseudoinverse path."""
    u = random_pure(db, rng)
    tau = float(rng.uniform(0.3, 1.5)) * np.outer(u, u.conj())
    g_a = random_density_factor(da, da, rng)
    return density_from_factor(np.kron(g_a, u[:, None]), da * db), tau   # rho_A (x) |u><u|


def _suite_trial(tag: str, rng, dims, tolerance: float, seed: int) -> InequalityReport:
    """One trial: draw a state (checked once, when drawn) and its weight, compute
    the forward sides, and orient them by the trial's direction."""
    layout = as_layout(dims)
    da, db = dims[0], dims[1]
    rank_deficient = rng.uniform() < 0.2   # drawn by every tag, so all draw in one order
    if tag == "noncond":
        # noncond_orders keeps delta below min(a, b, g) forward and above max(a, b, g) in reverse
        direction = FORWARD if rng.uniform() < 0.5 else REVERSE
        a, b, g, d = noncond_orders(rng, direction)
    else:
        triple = sample_triple(rng, tag)
        (a, b, g), d, direction = triple.as_tuple(), None, triple.direction
    solves = []

    if tag == "general":
        # -H_a(rho||tau_B) vs D_b(rho||sigma_A x tau_B) + weight term (no optimiser)
        if rank_deficient:
            rho, tau_b = _rank_deficient_pair(rng, da, db)
        else:
            rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng)
            tau_b = random_density(db, db, rng).mat
        sig = random_density(da, da, rng).mat + 0.05 * np.eye(da)
        sig_a = sig / np.trace(sig).real
        small = -gen_cond_entropy(rho, tau_b, a, layout, weight_pos=1)
        big = (_divergence_any_order(rho.mat, kron_eigh([psd_eigh(sig_a), psd_eigh(tau_b)]), b)
               + _entropy_weight_term(g, partial_trace(rho.mat, layout, [0]), sig_a))

    elif tag in ("decomp", "decomp-dup"):
        # H_g(rho_B) - H_a(rho||tau_A) vs I_b(rho||tau_A)
        if rank_deficient:
            rho_swapped, tau_a = _rank_deficient_pair(rng, db, da)
            rho = DensityOperator._built(swap_bipartite(rho_swapped.mat, (db, da)), layout)
        else:
            rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng)
            tau_a = random_density(da, da, rng).mat
        solves = [gen_mutual_info(rho, tau_a, b, layout, fixed=0)]
        small = renyi_entropy(partial_trace(rho.mat, layout, [1]), g) \
            - gen_cond_entropy(rho, tau_a, a, layout, weight_pos=0)
        big = solves[0].value

    elif tag in ("bchain", "bchain-alt"):
        # H_up_b(A|B) + H_g(rho_B) vs H_a(rho_AB)
        rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng)
        solves = [cond_entropy_up(rho, b, layout)]
        small = solves[0].value + renyi_entropy(partial_trace(rho.mat, layout, [1]), g)
        big = renyi_entropy(rho, a)

    elif tag in ("chain", "chain-dup"):
        # H_up_b(A|BC) + H_g(rho_BC||tau_C) vs H_a(rho_ABC||tau_C)
        dc = dims[2]
        if rank_deficient:
            rho, tau_c = _rank_deficient_pair(rng, da * db, dc)
        else:
            full = da * db * dc
            rho = random_density(full, int(rng.integers(1, full + 1)), rng)
            tau_c = random_density(dc, dc, rng).mat
        solves = [cond_entropy_up(rho, b, layout)]
        rho_bc = partial_trace(rho.mat, layout, [1, 2])
        small = solves[0].value + gen_cond_entropy(rho_bc, tau_c, g, layout.dims[1:], weight_pos=1)
        big = gen_cond_entropy(rho, tau_c, a, layout, weight_pos=2)

    else:
        # noncond: H_a(rho_A) + H_g(rho_B) - H_d(rho_AB) vs I_down_b(A:B)
        rho = random_density(da * db, int(rng.integers(2, da * db + 1)), rng)
        solves = [mutual_info_down(rho, b, layout)]
        small = (renyi_entropy(partial_trace(rho.mat, layout, [0]), a)
                 + renyi_entropy(partial_trace(rho.mat, layout, [1]), g)
                 - renyi_entropy(rho, d))
        big = solves[0].value

    if direction == REVERSE:
        small, big = big, small
    return finish(tag, seed, dims, a, b, g, d, direction, small, big, tolerance, solves=solves)


# tag -> (trial, arity), in the order the CLI lists and sweeps them; a trial
# draws one instance from its rng on exactly `arity` subsystem dimensions
SUITES = {
    "general": (_suite_trial, 2),
    "decomp": (_suite_trial, 2),
    "bchain": (_suite_trial, 2),
    "bchain-alt": (_suite_trial, 2),
    "chain": (_suite_trial, 3),
    "chain-dup": (_suite_trial, 3),
    "decomp-dup": (_suite_trial, 2),
    "noncond": (_suite_trial, 2),
    "rmu": (uncertainty.suite_trial, 2),
    "gbur": (uncertainty.suite_trial, 2),
    "sdgbur": (uncertainty.suite_trial, 2),
    "sigbur": (uncertainty.suite_trial, 2),
    "marcos": (uncertainty.suite_trial, 2),
    "result2": (uncertainty.suite_trial, 2),
    "res2c": (uncertainty.suite_trial, 2),
    "ier": (uncertainty.suite_trial, 2),
    "iier-opt": (uncertainty.suite_trial, 2),
    "const-comp": (uncertainty.suite_trial, 2),
    "hall-classical": (uncertainty.suite_trial, 2),
}


def run_suite(tag: str, trials: int, dims=(2, 2, 2), master_seed: int = 0,
              tolerance: float = report.BASE_TOL):
    """Run seeded independent trials of one inequality family.

    `dims` needs at least as many entries as the suite's arity in `SUITES`;
    the trials get exactly the first `arity`.

    A trial that raises a numerical error (ValueError, ArithmeticError or
    RuntimeError, which covers OptimizerDiverged) is recorded with verdict
    `error` and the exception text as its note; the sweep goes on.
    """
    if tag not in SUITES:
        raise ValueError(f"unknown suite tag {tag!r}")
    trial_fn, arity = SUITES[tag]
    if len(dims) < arity:
        raise ValueError(f"suite {tag!r} needs {arity} subsystem dimensions, got {len(dims)}")
    dims = tuple(dims[:arity])
    reports = []
    for i in range(trials):
        rng = trial_rng(master_seed, i)
        try:
            reports.append(trial_fn(tag, rng, dims, tolerance, i))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            reports.append(report.errored(tag, i, dims, f"{type(exc).__name__}: {exc}"))
    return reports, summarize(tag, reports)
