"""Randomized verification harness for the divergence chain/decomposition
inequalities, and the registry of every suite.

Every suite compares two Renyi expressions as `small <= big` (gap = big - small
>= 0 passes).  A trial is draw -> sides -> finish (see `report`).  The sides of
each relation shape swap the forward sides when the direction is reverse:
1/beta + 1/gamma > 2 for a triple, and delta above the other orders for noncond.
"""

from __future__ import annotations

import math

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
from .linalg import as_layout, frac_power, kron_eigh, partial_trace, psd_eigh
from .orders import FORWARD, REVERSE, hconj, noncond_orders, sample_triple
from .report import Instance, finish, summarize
from .states import density_from_factor, random_density, random_density_factor, random_pure, trial_rng


def _entropy_weight_term(gamma: float, rho_marg: np.ndarray, sigma: np.ndarray) -> float:
    """log (tr rho sigma^(1/gamma'))^(gamma'), the non-optimised entropy term."""
    if abs(gamma - 1.0) <= ALPHA_ONE_WINDOW:
        return float(_tr_log2(rho_marg, psd_eigh(sigma)))
    gp = hconj(gamma)
    return gp * float(np.log2(np.real(np.trace(rho_marg @ frac_power(sigma, 1.0 / gp)))))


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _rank_deficient_pair(rng, da: int, db: int, dims=None):
    """(rho, tau) with tau rank-deficient on the weighted subsystem but
    dominating rho, exercising the pseudoinverse path; rho on `dims`, one
    system of da * db by default."""
    u = random_pure(db, rng)
    tau = float(rng.uniform(0.3, 1.5)) * np.outer(u, u.conj())
    g_a = random_density_factor(da, da, rng)
    return density_from_factor(np.kron(g_a, u[:, None]), dims or da * db), tau   # rho_A (x) |u><u|


def _draw(tag: str, rng, dims) -> Instance:
    """A divergence suite's instance: the orders, then the state and its fixed
    weights, each state checked once, when drawn."""
    da, db = dims[0], dims[1]
    rank_deficient = rng.uniform() < 0.2   # drawn by every tag, so all draw in one order
    if tag == "noncond":
        # noncond_orders keeps delta below min(a, b, g) forward and above max(a, b, g) in reverse
        direction = FORWARD if rng.uniform() < 0.5 else REVERSE
        a, b, g, d = noncond_orders(rng, direction)
    else:
        triple = sample_triple(rng, tag)
        (a, b, g), d, direction = triple.as_tuple(), None, triple.direction
    if tag in ("bchain", "bchain-alt", "noncond"):   # no fixed weight
        rank = int(rng.integers(2 if tag == "noncond" else 1, da * db + 1))
        return Instance(tag, dims, a, b, g, d, direction, random_density(da * db, rank, rng, dims))
    # the weight acts on B for general, on A for decomp and on C for chain
    dw, full = dims[{"general": 1, "decomp": 0, "decomp-dup": 0}.get(tag, 2)], math.prod(dims)
    if rank_deficient:
        swap = tag.startswith("decomp")
        rho, tau = _rank_deficient_pair(rng, full // dw, dw, None if swap else dims)
        if swap:   # drawn as rho_B (x) |u><u|: put A first in G's rows
            rho = density_from_factor(rho.factor.reshape(db, da, -1).swapaxes(0, 1).reshape(full, -1), dims)
    else:
        rho = random_density(full, int(rng.integers(1, full + 1)), rng, dims)
        tau = random_density(dw, dw, rng).mat
    if tag != "general":
        return Instance(tag, dims, a, b, g, d, direction, rho, (tau,))
    sig = random_density(da, da, rng).mat + 0.05 * np.eye(da)
    return Instance(tag, dims, a, b, g, d, direction, rho, (tau, sig / np.trace(sig).real))


def _oriented(inst: Instance, small: float, big: float, solves=()):
    """(small, big, solves) of the forward sides, swapped when the trial is reversed."""
    return (big, small, solves) if inst.direction == REVERSE else (small, big, solves)


def _general_sides(inst: Instance):
    """-H_a(rho||tau_B) vs D_b(rho||sigma_A x tau_B) + the weight term (no optimiser)."""
    layout, (tau_b, sig_a) = as_layout(inst.dims), inst.weights
    small = -gen_cond_entropy(inst.rho, tau_b, inst.alpha, layout, weight_pos=1)
    big = (_divergence_any_order(inst.rho.factor, kron_eigh([psd_eigh(sig_a), psd_eigh(tau_b)]), inst.beta)
           + _entropy_weight_term(inst.gamma, partial_trace(inst.rho.mat, layout, [0]), sig_a))
    return _oriented(inst, small, big)


def _decomp_sides(inst: Instance):
    """H_g(rho_B) - H_a(rho||tau_A) vs I_b(rho||tau_A)."""
    layout, (tau_a,) = as_layout(inst.dims), inst.weights
    solve = gen_mutual_info(inst.rho, tau_a, inst.beta, layout, fixed=0)
    small = renyi_entropy(partial_trace(inst.rho.mat, layout, [1]), inst.gamma) \
        - gen_cond_entropy(inst.rho, tau_a, inst.alpha, layout, weight_pos=0)
    return _oriented(inst, small, solve.value, [solve])


def _bchain_sides(inst: Instance):
    """H_up_b(A|B) + H_g(rho_B) vs H_a(rho_AB)."""
    layout = as_layout(inst.dims)
    solve = cond_entropy_up(inst.rho, inst.beta, layout)
    small = solve.value + renyi_entropy(partial_trace(inst.rho.mat, layout, [1]), inst.gamma)
    return _oriented(inst, small, renyi_entropy(inst.rho, inst.alpha), [solve])


def _chain_sides(inst: Instance):
    """H_up_b(A|BC) + H_g(rho_BC||tau_C) vs H_a(rho_ABC||tau_C)."""
    layout, (tau_c,) = as_layout(inst.dims), inst.weights
    solve = cond_entropy_up(inst.rho, inst.beta, layout)
    rho_bc = inst.rho.marginal([1, 2])
    small = solve.value + gen_cond_entropy(rho_bc, tau_c, inst.gamma, rho_bc.layout, weight_pos=1)
    big = gen_cond_entropy(inst.rho, tau_c, inst.alpha, layout, weight_pos=2)
    return _oriented(inst, small, big, [solve])


def _noncond_sides(inst: Instance):
    """H_a(rho_A) + H_g(rho_B) - H_d(rho_AB) vs I_down_b(A:B)."""
    layout = as_layout(inst.dims)
    solve = mutual_info_down(inst.rho, inst.beta, layout)
    small = (renyi_entropy(partial_trace(inst.rho.mat, layout, [0]), inst.alpha)
             + renyi_entropy(partial_trace(inst.rho.mat, layout, [1]), inst.gamma)
             - renyi_entropy(inst.rho, inst.delta))
    return _oriented(inst, small, solve.value, [solve])


# tag -> (draw, sides, arity), in the order the CLI lists and sweeps them:
# draw(tag, rng, dims) reads the rng on exactly `arity` subsystem dimensions;
# sides(instance) -> (small, big, solves) reads none.  One sides per relation shape
SUITES = {
    "general": (_draw, _general_sides, 2),
    "decomp": (_draw, _decomp_sides, 2),
    "bchain": (_draw, _bchain_sides, 2),
    "bchain-alt": (_draw, _bchain_sides, 2),
    "chain": (_draw, _chain_sides, 3),
    "chain-dup": (_draw, _chain_sides, 3),
    "decomp-dup": (_draw, _decomp_sides, 2),
    "noncond": (_draw, _noncond_sides, 2),
    "rmu": (uncertainty.draw, uncertainty.rmu_sides, 2),
    "gbur": (uncertainty.draw, uncertainty.uncertainty_sides, 2),
    "sdgbur": (uncertainty.draw, uncertainty.uncertainty_sides, 2),
    "sigbur": (uncertainty.draw, uncertainty.uncertainty_sides, 2),
    "marcos": (uncertainty.draw, uncertainty.uncertainty_sides, 2),
    "result2": (uncertainty.draw, uncertainty.exclusion_sides, 2),
    "res2c": (uncertainty.draw, uncertainty.exclusion_sides, 2),
    "ier": (uncertainty.draw, uncertainty.exclusion_sides, 2),
    "iier-opt": (uncertainty.draw, uncertainty.exclusion_sides, 2),
    "const-comp": (uncertainty.draw, uncertainty.const_comp_sides, 2),
    "hall-classical": (uncertainty.draw, uncertainty.hall_classical_sides, 2),
}


def run_suite(tag: str, trials: int, dims=(2, 2, 2), master_seed: int = 0,
              tolerance: float = report.BASE_TOL):
    """Run seeded independent trials of one inequality family: each trial
    draws an instance from its own rng, evaluates its sides and finishes them.

    `dims` needs at least as many entries as the suite's arity in `SUITES`;
    the trials get exactly the first `arity`.

    A trial that raises a numerical error (ValueError, ArithmeticError or
    RuntimeError, which covers OptimizerDiverged) is recorded with verdict
    `error` and the exception text as its note; the sweep goes on.
    """
    if tag not in SUITES:
        raise ValueError(f"unknown suite tag {tag!r}")
    draw, sides, arity = SUITES[tag]
    if len(dims) < arity:
        raise ValueError(f"suite {tag!r} needs {arity} subsystem dimensions, got {len(dims)}")
    dims = tuple(dims[:arity])
    reports = []
    for i in range(trials):
        try:
            inst = draw(tag, trial_rng(master_seed, i), dims)
            reports.append(finish(inst, i, *sides(inst), tolerance))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            reports.append(report.errored(tag, i, dims, f"{type(exc).__name__}: {exc}"))
    return reports, summarize(tag, reports)
