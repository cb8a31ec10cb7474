"""Randomized verification harness for the divergence chain/decomposition
inequalities.

Each check orients its theorem as `small <= big` (gap = big - small >= 0
passes), records which side carries optimised quantities, and skips trials
whose support precondition fails rather than passing them silently.
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
    _mat,
    _support_flags,
    _tr_log2,
)
from .linalg import as_layout, embed_block, frac_power, partial_trace, support_projector, swap_bipartite
from .orders import (
    FORWARD,
    REVERSE,
    RenyiTriple,
    hconj,
    make_triple,
    noncond_orders,
    product_sign,
    sample_triple,
)
from .report import InequalityReport, finish, skipped, summarize
from .states import random_density, random_pure, trial_rng


def _dominates_embedded(rho: np.ndarray, weight: np.ndarray, layout, pos: int) -> bool:
    """Whether id (x) weight-at-pos dominates rho."""
    return _support_flags(rho, embed_block(layout, support_projector(weight), [pos]))[1]


def _entropy_weight_term(gamma: float, rho_marg: np.ndarray, sigma: np.ndarray) -> float:
    """log (tr rho sigma^(1/gamma'))^(gamma'), the non-optimised entropy term."""
    if abs(gamma - 1.0) <= ALPHA_ONE_WINDOW:
        return float(_tr_log2(rho_marg, sigma))
    gp = hconj(gamma)
    return gp * float(np.log2(np.real(np.trace(rho_marg @ frac_power(sigma, 1.0 / gp)))))


def check_general_bipartite(rho, sigma_a, tau_b, triple: RenyiTriple, dims=(2, 2),
                            tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """-H_a(rho||tau_B) vs D_b(rho||sigma_A x tau_B) + weight term (no optimiser)."""
    layout = as_layout(dims)
    rho = _mat(rho)
    a, b, g = triple.as_tuple()
    if not (a < 1 and b < 1) and not _dominates_embedded(rho, tau_b, layout, 1):
        return skipped("general", seed, layout.dims, a, b, g, None, triple.direction,
                       "support precondition violated at orders above 1")
    lhs_ent = -gen_cond_entropy(rho, tau_b, a, layout, weight_pos=1)
    div = _divergence_any_order(rho, np.kron(sigma_a, tau_b), b)
    rho_a = partial_trace(rho, layout, [0])
    other = div + _entropy_weight_term(g, rho_a, np.asarray(sigma_a, complex))
    small, big = (lhs_ent, other) if triple.direction == FORWARD else (other, lhs_ent)
    return finish("general", seed, layout.dims, a, b, g, None, triple.direction,
                  small, big, tolerance)


def check_decomposition(rho, tau_a, triple: RenyiTriple, dims=(2, 2),
                        tolerance: float = report.BASE_TOL, seed: int = 0,
                        theorem: str = "decomp") -> InequalityReport:
    """I_b(rho||tau_A) vs H_g(rho_B) - H_a(rho||tau_A)."""
    layout = as_layout(dims)
    rho = _mat(rho)
    a, b, g = triple.as_tuple()
    if not (a < 1 and b < 1) and not _dominates_embedded(rho, tau_a, layout, 0):
        return skipped(theorem, seed, layout.dims, a, b, g, None, triple.direction,
                       "support precondition violated at orders above 1")
    res = gen_mutual_info(rho, tau_a, b, layout, fixed=0)
    mi = res.value
    ent_side = renyi_entropy(partial_trace(rho, layout, [1]), g) \
        - gen_cond_entropy(rho, tau_a, a, layout, weight_pos=0)
    fwd = triple.direction == FORWARD
    small, big = (ent_side, mi) if fwd else (mi, ent_side)
    return finish(theorem, seed, layout.dims, a, b, g, None, triple.direction,
                  small, big, tolerance, wide=not fwd, solves=[res])


def check_bipartite_chain(rho, triple: RenyiTriple, dims=(2, 2),
                          tolerance: float = report.BASE_TOL, seed: int = 0,
                          theorem: str = "bchain") -> InequalityReport:
    """H_a(rho_AB) vs H_up_b(A|B) + H_g(rho_B)."""
    layout = as_layout(dims)
    rho = _mat(rho)
    a, b, g = triple.as_tuple()
    res = cond_entropy_up(rho, b, layout)
    chain_side = res.value + renyi_entropy(partial_trace(rho, layout, [1]), g)
    joint = renyi_entropy(rho, a)
    fwd = triple.direction == FORWARD
    small, big = (chain_side, joint) if fwd else (joint, chain_side)
    return finish(theorem, seed, layout.dims, a, b, g, None, triple.direction,
                  small, big, tolerance, wide=not fwd, solves=[res])


def check_tripartite_chain(rho, tau_c, triple: RenyiTriple, dims=(2, 2, 2),
                           tolerance: float = report.BASE_TOL, seed: int = 0,
                           theorem: str = "chain", direction: str | None = None) -> InequalityReport:
    """H_a(rho_ABC||tau_C) vs H_up_b(A|BC) + H_g(rho_BC||tau_C)."""
    layout = as_layout(dims)
    rho = _mat(rho)
    a, b, g = triple.as_tuple()
    direction = direction or triple.direction
    if not (a < 1 and g < 1) and not _dominates_embedded(rho, tau_c, layout, 2):
        return skipped(theorem, seed, layout.dims, a, b, g, None, direction,
                       "support precondition violated at orders above 1")
    res = cond_entropy_up(rho, b, layout)
    rho_bc = partial_trace(rho, layout, [1, 2])
    chain_side = res.value + gen_cond_entropy(rho_bc, tau_c, g, layout.dims[1:], weight_pos=1)
    joint = gen_cond_entropy(rho, tau_c, a, layout, weight_pos=2)
    fwd = direction == FORWARD
    small, big = (chain_side, joint) if fwd else (joint, chain_side)
    return finish(theorem, seed, layout.dims, a, b, g, None, direction,
                  small, big, tolerance, wide=not fwd, solves=[res])


def check_noncond(rho, alpha: float, beta: float, gamma: float, delta: float,
                  dims=(2, 2), tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """I_down_b(A:B) vs H_a(rho_A) + H_g(rho_B) - H_d(rho_AB)."""
    layout = as_layout(dims)
    rho = _mat(rho)
    res = mutual_info_down(rho, beta, layout)
    ent_side = (renyi_entropy(partial_trace(rho, layout, [0]), alpha)
                + renyi_entropy(partial_trace(rho, layout, [1]), gamma)
                - renyi_entropy(rho, delta))
    fwd = delta < min(alpha, beta, gamma)
    direction = FORWARD if fwd else REVERSE
    small, big = (ent_side, res.value) if fwd else (res.value, ent_side)
    return finish("noncond", seed, layout.dims, alpha, beta, gamma, delta, direction,
                  small, big, tolerance, wide=not fwd, solves=[res])


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _rank_deficient_pair(rng, da: int, db: int):
    """(rho, tau) with tau rank-deficient on the weighted subsystem but
    dominating rho, exercising the pseudoinverse path."""
    u = random_pure(db, rng)
    tau = float(rng.uniform(0.3, 1.5)) * np.outer(u, u.conj())
    rho_a = random_density(da, da, rng).mat
    rho = np.kron(rho_a, np.outer(u, u.conj()))
    return rho, tau


def _explore_triple(rng) -> RenyiTriple:
    """Off-range/off-surface orders for the explore mode."""
    t = sample_triple(rng, "general")
    jitter = float(rng.uniform(-0.05, 0.05))
    return make_triple(t.alpha, t.beta, t.gamma + jitter)


def _suite_trial(tag: str, rng, dims, tolerance: float, seed: int, explore: bool) -> InequalityReport:
    da, db = dims[0], dims[1]
    rank_deficient = rng.uniform() < 0.2
    triple = _explore_triple(rng) if explore else (None if tag == "noncond" else sample_triple(rng, tag))

    if tag == "general":
        if rank_deficient:
            rho, tau_b = _rank_deficient_pair(rng, da, db)
        else:
            rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng).mat
            tau_b = random_density(db, db, rng).mat
        sig = random_density(da, da, rng).mat + 0.05 * np.eye(da)
        sig_a = sig / np.trace(sig).real
        return check_general_bipartite(rho, sig_a, tau_b, triple, dims, tolerance, seed)

    if tag in ("decomp", "decomp-dup"):
        if rank_deficient:
            rho_swapped, tau_a = _rank_deficient_pair(rng, db, da)
            rho = swap_bipartite(rho_swapped, (db, da))
        else:
            rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng).mat
            tau_a = random_density(da, da, rng).mat
        return check_decomposition(rho, tau_a, triple, dims, tolerance, seed, theorem=tag)

    if tag in ("bchain", "bchain-alt"):
        rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng).mat
        return check_bipartite_chain(rho, triple, dims, tolerance, seed, theorem=tag)

    if tag in ("chain", "chain-dup"):
        dc = dims[2]
        if rank_deficient:
            u = random_pure(dc, rng)
            tau_c = float(rng.uniform(0.3, 1.5)) * np.outer(u, u.conj())
            rho = np.kron(random_density(da * db, da * db, rng).mat, np.outer(u, u.conj()))
        else:
            full = da * db * dc
            rho = random_density(full, int(rng.integers(1, full + 1)), rng).mat
            tau_c = random_density(dc, dc, rng).mat
        # chain-dup takes its direction from the sign of (a-1)(b-1)(g-1), not from the triple
        direction = None if tag == "chain" else (FORWARD if product_sign(triple) > 0 else REVERSE)
        return check_tripartite_chain(rho, tau_c, triple, dims, tolerance, seed,
                                      theorem=tag, direction=direction)

    # noncond
    direction = FORWARD if rng.uniform() < 0.5 else REVERSE
    a, b, g, d = noncond_orders(rng, direction)
    rho = random_density(da * db, int(rng.integers(2, da * db + 1)), rng).mat
    return check_noncond(rho, a, b, g, d, dims, tolerance, seed)


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
              tolerance: float = report.BASE_TOL, explore: bool = False):
    """Run seeded independent trials of one inequality family.

    `dims` needs at least as many entries as the suite's arity in `SUITES`;
    the trials get exactly the first `arity`.  Explore mode changes only the
    divergence suites; the uncertainty suites ignore it.

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
            reports.append(trial_fn(tag, rng, dims, tolerance, i, explore))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            reports.append(report.errored(tag, i, dims, f"{type(exc).__name__}: {exc}"))
    return reports, summarize(tag, reports)
