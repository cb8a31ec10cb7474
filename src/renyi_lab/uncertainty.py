"""Measurement-pair uncertainty and information-exclusion bounds.

Covers the overlap-constant family (Maassen-Uffink, state-dependent and
state-independent delta-order bounds, Hall and Coles-Piani exclusion
constants) and the randomized checks of the associated inequalities.  Every
bound is a plain float in bits.  An oriented bound measures `pair.basis_x`
first; the other orientation is the same function on `pair.swapped()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import report
from .entropies import (
    classical_renyi_entropy,
    cond_entropy_up,
    gen_cond_entropy,
    gen_mutual_info,
    mutual_info_down,
    renyi_entropy,
)
from .linalg import as_layout, dagger, swap_bipartite
from .orders import hatconj, hconj, sample_triple, sdg_condition, surface_residual, FORWARD, REVERSE
from .report import InequalityReport, finish
from .states import (
    DensityOperator,
    MeasurementBasis,
    cq_state,
    measure,
    measurement_pmf,
    random_density,
    random_onb,
)

DELTA_ONE_WINDOW = 1e-6
DELTA_ZERO_WINDOW = 1e-6
SI_GRID_STEP = 1e-3   # mixing-weight grid of q_delta_state_independent


@dataclass(frozen=True)
class MeasurementPair:
    """Two orthonormal bases on one space with their overlap matrix."""

    basis_x: MeasurementBasis
    basis_z: MeasurementBasis
    overlaps: np.ndarray   # c[x, z] = |<x|z>|^2, doubly stochastic
    c: float               # max overlap
    d: int

    @classmethod
    def from_bases(cls, basis_x: MeasurementBasis, basis_z: MeasurementBasis) -> "MeasurementPair":
        if basis_x.dim != basis_z.dim:
            raise ValueError("bases must act on the same space")
        ov = np.abs(dagger(basis_x.vectors) @ basis_z.vectors) ** 2
        return cls(basis_x, basis_z, ov, float(ov.max()), basis_x.dim)

    def swapped(self) -> "MeasurementPair":
        """The other orientation: Z measured first, overlaps transposed."""
        return MeasurementPair(self.basis_z, self.basis_x, self.overlaps.T, self.c, self.d)


def mub_pair(d: int) -> MeasurementPair:
    """Computational basis versus its Fourier transform (all overlaps 1/d)."""
    comp = MeasurementBasis(np.eye(d, dtype=complex))
    k = np.arange(d)
    fourier = MeasurementBasis(np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d))
    return MeasurementPair.from_bases(comp, fourier)


def random_pair(d: int, rng: np.random.Generator) -> MeasurementPair:
    return MeasurementPair.from_bases(random_onb(d, rng), random_onb(d, rng))


# ---------------------------------------------------------------------------
# bound constants, in bits; the oriented ones measure `pair.basis_x` first
# ---------------------------------------------------------------------------

def q_mu(pair: MeasurementPair) -> float:
    return float(-np.log2(pair.c))


def _q_vn_oriented(rho, pair: MeasurementPair) -> float:
    p = measurement_pmf(_as_state(rho, pair.d), pair.basis_x).probabilities
    return float(-np.sum(p * np.log2(pair.overlaps.max(axis=1))))


def _as_state(rho, d: int) -> DensityOperator:
    if isinstance(rho, DensityOperator):
        return rho
    return DensityOperator(np.asarray(rho, dtype=complex), as_layout(d))


def q_delta_oriented(rho, pair: MeasurementPair, delta: float) -> float:
    """-log (tr rho_X sum_x max_z c^(1/delta') |x><x|)^(delta')."""
    if abs(delta) <= DELTA_ZERO_WINDOW:
        return q_mu(pair)
    if abs(delta - 1.0) <= DELTA_ONE_WINDOW:
        return _q_vn_oriented(rho, pair)
    p = measurement_pmf(_as_state(rho, pair.d), pair.basis_x).probabilities
    t = 1.0 / hconj(delta)
    # log-domain sum: exponents t/delta' blow up as delta -> 0
    logs = t * np.log2(pair.overlaps.max(axis=1))
    live = p > 0.0
    m = logs[live].max()
    s = float(np.sum(p[live] * 2.0 ** (logs[live] - m)))
    return float(-(m + np.log2(s)) / t)


def q_delta(rho, pair: MeasurementPair, delta: float) -> float:
    """The delta-order bound: max over both orientations.  delta = 1 gives the
    state-dependent relative-entropy bound q(rho)."""
    return max(q_delta_oriented(rho, pair, delta), q_delta_oriented(rho, pair.swapped(), delta))


def _delta_matrix(pair: MeasurementPair, delta: float, p: float) -> np.ndarray:
    dp = hconj(delta)
    cx = pair.overlaps.max(axis=1) ** (1.0 / dp)
    cz = pair.overlaps.max(axis=0) ** (1.0 / dp)
    vx, vz = pair.basis_x.vectors, pair.basis_z.vectors
    return p * (vx * cx) @ dagger(vx) + (1.0 - p) * (vz * cz) @ dagger(vz)


def q_delta_state_independent(pair: MeasurementPair, delta: float) -> float:
    """Worst-case-over-states bound via the mixing-weight minimax form: a
    SI_GRID_STEP grid over the weight, refined around its best point."""
    if abs(delta) <= DELTA_ZERO_WINDOW:
        return q_mu(pair)
    vx, vz = pair.basis_x.vectors, pair.basis_z.vectors
    if abs(delta - 1.0) <= DELTA_ONE_WINDOW:
        # delta -> 1 limit: the smallest eigenvalue of the mixed log-overlap matrix
        lx = -np.log2(pair.overlaps.max(axis=1))
        lz = -np.log2(pair.overlaps.max(axis=0))

        def objective(p: float) -> float:
            m = p * (vx * lx) @ dagger(vx) + (1.0 - p) * (vz * lz) @ dagger(vz)
            return -float(np.linalg.eigvalsh(m)[0])
    else:
        dp = hconj(delta)

        def objective(p: float) -> float:
            lam = np.linalg.eigvalsh(_delta_matrix(pair, delta, p))
            ext = lam[-1] if dp > 0 else lam[0]   # lambda_max of the delta'-power
            return dp * float(np.log2(ext))

    grid = np.arange(0.0, 1.0 + SI_GRID_STEP / 2, SI_GRID_STEP)
    vals = [objective(p) for p in grid]
    k = int(np.argmin(vals))
    lo, hi = max(0.0, grid[k] - SI_GRID_STEP), min(1.0, grid[k] + SI_GRID_STEP)
    res = scipy.optimize.minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                                         options={"xatol": 1e-10})
    return -min(float(res.fun), float(vals[k]))


def hall_bound(pair: MeasurementPair) -> float:
    return float(np.log2(pair.d ** 2 * pair.c))


def r_xz(pair: MeasurementPair) -> float:
    return float(np.log2(pair.d * np.sum(pair.overlaps.max(axis=1))))


def r_cp(pair: MeasurementPair) -> float:
    return min(r_xz(pair), r_xz(pair.swapped()))


def r_grudka(pair: MeasurementPair) -> float:
    top = np.sort(pair.overlaps, axis=None)[-pair.d:]
    return float(np.log2(pair.d * top.sum()))


def h_min_cond(rho, dims) -> tuple[float, float]:
    """Conditional min-entropy via the optimised entropy at a huge order.

    Returns (value, optimiser residual); the order cap makes this an
    approximation whose residual is recorded alongside.
    """
    res = cond_entropy_up(rho, math.inf, dims)
    return res.value, res.residual


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def check_rmu(rho_a, pair: MeasurementPair, alpha: float,
              tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """H_a(X) + H_a^(Z) >= q_MU for conjugate-order measured entropies."""
    state = _as_state(rho_a, pair.d)
    ah = hatconj(alpha)
    px = measurement_pmf(state, pair.basis_x).probabilities
    pz = measurement_pmf(state, pair.basis_z).probabilities
    big = classical_renyi_entropy(px, alpha) + classical_renyi_entropy(pz, ah)
    return finish("rmu", seed, (pair.d,), alpha, ah, math.nan, None, FORWARD,
                  q_mu(pair), big, tolerance)


def _measured_states(rho_ab: DensityOperator, pair: MeasurementPair):
    return measure(rho_ab, pair.basis_x, 0), measure(rho_ab, pair.basis_z, 0)


def check_gbur(rho_ab, pair: MeasurementPair, triple, tau_b,
               tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """H_up_b(X|B) + H_g(M_Z(rho)||tau_B) >= H_a(rho||tau_B) + q_MU."""
    a, b, g = triple.as_tuple()
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    res = cond_entropy_up(rho_x, b)
    big = res.value + gen_cond_entropy(rho_z, tau_b, g, rho_z.layout, weight_pos=1)
    small = gen_cond_entropy(state, tau_b, a, state.layout, weight_pos=1) + q_mu(pair)
    return finish("gbur", seed, state.layout.dims, a, b, g, None, REVERSE,
                  small, big, tolerance, wide=True, solves=[res])


def check_sdgbur(rho_ab, pair: MeasurementPair, alpha, beta, gamma, delta, tau_b,
                 variant: str = "xz", tolerance: float = report.BASE_TOL,
                 seed: int = 0) -> InequalityReport:
    """State-dependent-bound uncertainty relation in one of its three forms;
    "zx" is "xz" on the swapped pair."""
    state = rho_ab
    if variant in ("xz", "zx"):
        oriented = pair if variant == "xz" else pair.swapped()
        first, second = _measured_states(state, oriented)
        res = cond_entropy_up(first, beta)
        big = res.value + gen_cond_entropy(second, tau_b, gamma, second.layout, weight_pos=1)
        const = q_delta_oriented(state.marginal([0]), oriented, delta)
        solves = [res]
    elif variant == "both":
        rho_x, rho_z = _measured_states(state, pair)
        solves = [cond_entropy_up(rho_x, beta), cond_entropy_up(rho_z, gamma)]
        big = solves[0].value + solves[1].value
        const = q_delta(state.marginal([0]), pair, delta)
    else:
        raise ValueError("variant must be xz, zx, or both")
    small = gen_cond_entropy(state, tau_b, alpha, state.layout, weight_pos=1) + const
    return finish("sdgbur", seed, state.layout.dims, alpha, beta, gamma, delta, REVERSE,
                  small, big, tolerance, wide=True, solves=solves, note=f"variant {variant}")


def check_sigbur(rho_ab, pair: MeasurementPair, alpha, beta, gamma, delta, tau_b,
                 tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """State-independent version of the delta-order uncertainty bound."""
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    r1 = cond_entropy_up(rho_x, beta)
    r2 = cond_entropy_up(rho_z, gamma)
    big = r1.value + r2.value
    small = gen_cond_entropy(state, tau_b, alpha, state.layout, weight_pos=1) \
        + q_delta_state_independent(pair, delta)
    return finish("sigbur", seed, state.layout.dims, alpha, beta, gamma, delta, REVERSE,
                  small, big, tolerance, wide=True, solves=[r1, r2])


def check_marcos(rho_ab, pair: MeasurementPair, triple,
                 tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """All-optimised measured uncertainty relation with the sign-product rule."""
    a, g, b = triple.alpha, triple.beta, triple.gamma   # (alpha, gamma, beta) on the surface
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    r1 = cond_entropy_up(rho_x, g)
    r2 = cond_entropy_up(rho_z, b)
    r3 = cond_entropy_up(state, a)
    big = r1.value + r2.value
    small = q_mu(pair) + r3.value
    return finish("marcos", seed, state.layout.dims, a, b, g, None, REVERSE,
                  small, big, tolerance, wide=True, solves=[r1, r2, r3])


def check_result2(rho_ab, pair: MeasurementPair, triple, tau_b,
                  tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """I_down_b(X:B) + I_g(M_Z(rho)||tau_B) <= r_H - H_a(rho||tau_B)."""
    a, b, g = triple.as_tuple()
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    r1 = mutual_info_down(rho_x, b)
    r2 = gen_mutual_info(rho_z, tau_b, g, fixed=1)
    small = r1.value + r2.value
    big = hall_bound(pair) - gen_cond_entropy(state, tau_b, a, state.layout, weight_pos=1)
    return finish("result2", seed, state.layout.dims, a, b, g, None, REVERSE,
                  small, big, tolerance, wide=True, solves=[r1, r2])


def check_res2c(rho_ab, pair: MeasurementPair, alpha: float,
                tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """Order-optimal exclusion bound against the conditional min-entropy."""
    if not (0.5 < alpha < 2.0):
        raise ValueError("order must lie in (1/2, 2)")
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    r1 = mutual_info_down(rho_x, alpha)
    rho_b = state.marginal([1]).mat
    r2 = gen_mutual_info(rho_z, rho_b, 1.0 / alpha, fixed=1)
    hmin = cond_entropy_up(state, math.inf)
    small = r1.value + r2.value
    big = hall_bound(pair) - hmin.value
    return finish("res2c", seed, state.layout.dims, alpha, 1.0 / alpha, math.nan, None, REVERSE,
                  small, big, tolerance, wide=True, solves=[r1, r2, hmin])


def check_ier(rho_ab, pair: MeasurementPair, alpha, beta, gamma, tau_b,
              symmetric: bool = False, orientation: str = "xz",
              tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """Improved information-exclusion relations (symmetric, or oriented: "zx"
    is "xz" on the swapped pair)."""
    state = rho_ab
    if symmetric:
        rho_x, rho_z = _measured_states(state, pair)
        r1 = mutual_info_down(rho_x, beta)
        r2 = mutual_info_down(rho_z, gamma)
        res = cond_entropy_up(state, alpha)
        small = r1.value + r2.value
        big = r_cp(pair) - res.value
        solves = [r1, r2, res]
    else:
        if orientation not in ("xz", "zx"):
            raise ValueError("orientation must be xz or zx")
        oriented = pair if orientation == "xz" else pair.swapped()
        first, second = _measured_states(state, oriented)
        r1 = mutual_info_down(first, beta)
        r2 = gen_mutual_info(second, tau_b, gamma, fixed=1)
        small = r1.value + r2.value
        big = r_xz(oriented) - gen_cond_entropy(state, tau_b, alpha, state.layout, weight_pos=1)
        solves = [r1, r2]
    return finish("ier", seed, state.layout.dims, alpha, beta, gamma, None, REVERSE,
                  small, big, tolerance, wide=True, solves=solves,
                  note="symmetric" if symmetric else f"orientation {orientation}")


def check_iier_opt(rho_ab, pair: MeasurementPair, alpha: float, tau_b,
                   optimal: bool = False, tolerance: float = report.BASE_TOL,
                   seed: int = 0) -> InequalityReport:
    """Min-entropy exclusion bound; `optimal` uses the twin-order special case.

    The general form keeps the stated weight on both sides (the order-infinity
    limit of the oriented exclusion relation); a fixed bound independent of
    the weight fails for adversarial weights.
    """
    if not (0.5 <= alpha <= 1.5):
        raise ValueError("order must lie in [1/2, 3/2]")
    state = rho_ab
    rho_x, rho_z = _measured_states(state, pair)
    if optimal:
        hmin = cond_entropy_up(state, math.inf)
        r1 = mutual_info_down(rho_x, 0.5)
        r2 = mutual_info_down(rho_z, 1.5)
        small = r1.value + r2.value
        big = r_cp(pair) - hmin.value
        solves = [r1, r2, hmin]
    else:
        r1 = mutual_info_down(rho_x, alpha)
        r2 = gen_mutual_info(rho_z, tau_b, 2.0 - alpha, fixed=1)
        small = r1.value + r2.value
        big = r_xz(pair) - gen_cond_entropy(state, tau_b, math.inf, state.layout, weight_pos=1)
        solves = [r1, r2]
    return finish("iier-opt", seed, state.layout.dims, alpha, None if optimal else 2.0 - alpha,
                  math.nan, None, REVERSE, small, big, tolerance, wide=True, solves=solves,
                  note="optimal orders" if optimal else "")


def check_const_comp(rho_a, pair: MeasurementPair, alpha: float, delta: float,
                     tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """H_a(rho_X) - q_d(rho, X, Z) <= log sum_x max_z c_xz."""
    state = _as_state(rho_a, pair.d)
    px = measurement_pmf(state, pair.basis_x).probabilities
    small = classical_renyi_entropy(px, alpha) - q_delta_oriented(state, pair, delta)
    big = float(np.log2(np.sum(pair.overlaps.max(axis=1))))
    return finish("const-comp", seed, (pair.d,), alpha, math.nan, math.nan, delta, REVERSE,
                  small, big, tolerance)


def check_hall_classical(rho_ay: DensityOperator, pair: MeasurementPair,
                         tolerance: float = report.BASE_TOL, seed: int = 0) -> InequalityReport:
    """Shannon/von Neumann baseline: I(X:Y) + I(Z:Y) <= log(d^2 c)."""
    def vn_mutual(state: DensityOperator) -> float:
        return (renyi_entropy(state.marginal([0]), 1.0)
                + renyi_entropy(state.marginal([1]), 1.0)
                - renyi_entropy(state, 1.0))

    rho_x, rho_z = _measured_states(rho_ay, pair)
    small = vn_mutual(rho_x) + vn_mutual(rho_z)
    return finish("hall-classical", seed, rho_ay.layout.dims, 1.0, 1.0, 1.0, None, REVERSE,
                  small, hall_bound(pair), tolerance)


# ---------------------------------------------------------------------------
# samplers for the order constraints
# ---------------------------------------------------------------------------

def sample_sdg_orders(rng: np.random.Generator, variant: str):
    """(alpha, beta, gamma, delta) satisfying the state-dependent-bound
    constraints; the common order mu is fixed first and the rest solved."""
    for _ in range(2000):
        mu = float(rng.uniform(0.52, 3.0))
        if abs(mu - 1.0) < 1e-3:
            continue
        m = 2.0 - 1.0 / mu
        if variant == "both":
            # mu ties (alpha, beta) and (gamma, delta); bound 1/beta >= m
            b = float(rng.uniform(0.52, 1.0 / m if m > 0 else 4.0))
            den = mu * b - 1.0
            if abs(den) < 1e-9:
                continue
            a = (2.0 * mu * b - mu - b) / den
            g = float(rng.uniform(0.52, 4.0))
            den2 = mu * g - 2.0 * mu + 1.0
            if abs(den2) < 1e-9:
                continue
            d = (g - mu) / den2
            # the twin constraint is the pairing rule with beta and gamma swapped
            ok = sdg_condition(a, g, b, d)[1]
        else:
            g = float(rng.uniform(0.52, min(1.0 / m, 4.0) if m > 0 else 4.0))
            den = mu * g - 1.0
            if abs(den) < 1e-9:
                continue
            a = (2.0 * mu * g - mu - g) / den
            b = float(rng.uniform(0.52, 4.0))
            den2 = mu * b - 2.0 * mu + 1.0
            if abs(den2) < 1e-9:
                continue
            d = (b - mu) / den2
            ok = sdg_condition(a, b, g, d)[1]
        if ok:
            return a, b, g, d
    raise RuntimeError("could not sample orders for the state-dependent bound")


def sample_ier_orders(rng: np.random.Generator, symmetric: bool):
    for _ in range(2000):
        if symmetric:
            b = float(rng.uniform(0.52, 1.45))
            g = float(rng.uniform(0.52, 2.0 - b))
            u, v = 1.0 / (2.0 - b), 1.0 / (2.0 - g)
            den = u * v - 1.0
            if abs(den) < 1e-9:
                continue
            a = (2.0 * u * v - u - v) / den
            if not (a >= 0.5 and math.isfinite(a)):
                continue
            if surface_residual(a, u, v) > 1e-9:
                continue
            return a, b, g
        b = float(rng.uniform(0.52, 1.9))
        mu = 1.0 / (2.0 - b)
        g = float(rng.uniform(0.52, min(1.0 / b, 4.0)))
        den = mu * g - 1.0
        if abs(den) < 1e-9:
            continue
        a = (2.0 * mu * g - mu - g) / den
        if not (a >= 0.5 and math.isfinite(a) and b * g <= 1.0 + 1e-12):
            continue
        return a, b, g
    raise RuntimeError("could not sample exclusion-relation orders")


def sample_marcos_triple(rng: np.random.Generator):
    """Surface triple with every order >= 1/2 and negative sign product."""
    for _ in range(2000):
        t = sample_triple(rng, "general")
        if min(t.alpha, t.beta, t.gamma) >= 0.5 and \
                (t.alpha - 1) * (t.beta - 1) * (t.gamma - 1) < 0:
            return t
    raise RuntimeError("could not sample a triple for the measured uncertainty relation")


# ---------------------------------------------------------------------------
# suite trial (registered in `inequalities.SUITES`)
# ---------------------------------------------------------------------------

def suite_trial(tag: str, rng: np.random.Generator, dims, tolerance: float,
                seed: int, explore: bool) -> InequalityReport:
    """One seeded trial of an uncertainty suite on (d_A, d_B); `explore` is ignored."""
    da, db = dims
    pair = random_pair(da, rng)
    rho = random_density(da * db, int(rng.integers(1, da * db + 1)), rng, dims=(da, db))
    tau_b = random_density(db, db, rng).mat

    if tag == "rmu":
        rho_a = random_density(da, int(rng.integers(1, da + 1)), rng)
        alpha = float(rng.choice([0.5, 0.8, 1.0, 2.0, 5.0, math.inf]))
        return check_rmu(rho_a, pair, alpha, tolerance, seed)
    if tag == "gbur":
        triple = sample_triple(rng, "chain")
        while triple.direction != REVERSE:
            triple = sample_triple(rng, "chain")
        return check_gbur(rho, pair, triple, tau_b, tolerance, seed)
    if tag == "sdgbur":
        variant = ("xz", "zx", "both")[int(rng.integers(3))]
        a, b, g, d = sample_sdg_orders(rng, variant)
        return check_sdgbur(rho, pair, a, b, g, d, tau_b, variant, tolerance, seed)
    if tag == "sigbur":
        a, b, g, d = sample_sdg_orders(rng, "both")
        return check_sigbur(rho, pair, a, b, g, d, tau_b, tolerance, seed)
    if tag == "marcos":
        return check_marcos(rho, pair, sample_marcos_triple(rng), tolerance, seed)
    if tag == "result2":
        triple = sample_triple(rng, "chain")
        while triple.direction != REVERSE:
            triple = sample_triple(rng, "chain")
        return check_result2(rho, pair, triple, tau_b, tolerance, seed)
    if tag == "res2c":
        alpha = float(rng.uniform(0.55, 1.9))
        return check_res2c(rho, pair, alpha, tolerance, seed)
    if tag == "ier":
        symmetric = bool(rng.uniform() < 0.5)
        a, b, g = sample_ier_orders(rng, symmetric)
        orientation = "xz" if rng.uniform() < 0.5 else "zx"
        return check_ier(rho, pair, a, b, g, tau_b, symmetric, orientation, tolerance, seed)
    if tag == "iier-opt":
        optimal = bool(rng.uniform() < 0.5)
        alpha = float(rng.uniform(0.5, 1.5))
        return check_iier_opt(rho, pair, alpha, tau_b, optimal, tolerance, seed)
    if tag == "const-comp":
        rho_a = random_density(da, int(rng.integers(1, da + 1)), rng)
        alpha, delta = _sample_const_comp_orders(rng)
        return check_const_comp(rho_a, pair, alpha, delta, tolerance, seed)
    # hall-classical
    p = rng.dirichlet(np.ones(db))
    blocks = [random_density(da, da, rng).mat for _ in range(db)]
    rho_ay = cq_state(p, blocks, dims=(db, da))
    rho_ya = DensityOperator(swap_bipartite(rho_ay.mat, (db, da)), as_layout((da, db)))
    return check_hall_classical(rho_ya, pair, tolerance, seed)


def _sample_const_comp_orders(rng: np.random.Generator):
    for _ in range(500):
        a = float(rng.uniform(0.5, 3.0))
        d = float(rng.uniform(-2.0, a - 0.05))
        if abs(d) < 1e-3 or abs(d - 1.0) < 1e-3:
            continue
        if (a - d) / (a * d - 2.0 * d + 1.0) < 0.5:
            continue
        if (a - 1.0) * (d - 1.0) / (a - d) + 1.0 / d < 1.0:
            continue
        return a, d
    raise RuntimeError("could not sample orders for the constant comparison")
