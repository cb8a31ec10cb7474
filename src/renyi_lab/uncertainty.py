"""Measurement-pair uncertainty and information-exclusion bounds.

Covers the overlap-constant family (Maassen-Uffink, state-dependent and
state-independent delta-order bounds, Hall and Coles-Piani exclusion
constants) and the randomized checks of the associated inequalities.  Every
bound is a plain float in bits.  An oriented bound measures `pair.basis_x`
first; the other orientation is the same function on `pair.swapped()`.

A trial is draw -> sides -> finish (see `report`).  The optimised suites check
one of two relations, X and Z being A of rho_AB measured in the pair's two bases:

    uncertainty:  H^up_b(X|B) + Z term  >=  joint term + constant
    exclusion:    I^down_b(X:B) + Z term  <=  constant - joint term

The Z term is the same quantity at order g and the joint term is H_a(A|B);
each is taken against a fixed weight on B or optimised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import (
    classical_renyi_entropy,
    cond_entropy_up,
    gen_cond_entropy,
    measured_mutual_info,
)
from .linalg import as_layout, dagger
from .orders import hatconj, hconj, sample_triple, sdg_condition, surface_residual, FORWARD, REVERSE
from .report import Instance
from .states import (
    DensityOperator,
    MeasurementBasis,
    density_from_factor,
    measure,
    measurement_pmf,
    random_density,
    random_cq_state,
    random_density_factor,
    random_onb,
)

DELTA_ONE_WINDOW = 1e-6
DELTA_ZERO_WINDOW = 1e-6
SI_BRACKET = 1e-12    # width of the mixing-weight bracket at which q_delta_state_independent stops
SI_ROUNDING = 1e-9    # bits: q_delta_state_independent refuses a delta it may round by more


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


def _mixed_matrix(pair: MeasurementPair, wx: np.ndarray, wz: np.ndarray, p) -> np.ndarray:
    """p V_x diag(wx) V_x^dag + (1 - p) V_z diag(wz) V_z^dag, stacked over the shape of p."""
    vx, vz = pair.basis_x.vectors, pair.basis_z.vectors
    p = np.asarray(p)[..., None, None]
    return p * (vx * wx) @ dagger(vx) + (1.0 - p) * (vz * wz) @ dagger(vz)


def q_delta_state_independent(pair: MeasurementPair, delta: float) -> float:
    """Worst-case-over-states bound via the mixing-weight minimax form:
    -min over p in [0, 1] of f(p) = delta' log2 lambda(p), lambda(p) the
    largest (delta' > 0) or smallest (delta' < 0) eigenvalue of
    M(p) = p V_x diag(c_x^(1/delta')) V_x^dag + (1 - p) V_z diag(c_z^(1/delta')) V_z^dag;
    at delta -> 1, f(p) = -lambda_min of the mixed log-overlap matrix.

    The weights are taken relative to c^(1/delta'), c the max overlap, through
    expm1: f(p) = log2 c + delta' log2(1 + lambda of the mixed offsets).  Near
    delta = 1 every weight lies within about 1/delta' of c^(1/delta'), and
    log2 lambda(p) itself would carry delta' times the rounding of lambda(p).
    At delta' < 0 the offsets reach n = (c/c_min)^(1/|delta'|) - 1 and f(p)
    carries about |delta'| d eps n of rounding; past SI_ROUNDING the bound
    raises FloatingPointError (random pairs, d = 3 to 8: below delta of about
    0.03 to 0.07).  Every delta accepted on 40 random pairs at each of d = 3, 4
    and 8 was within 1e-10 bits of a 50-digit evaluation.

    A bracket zoom finds the minimum: 33 weights on [lo, hi] as one stack and
    one eigvalsh, the bracket shrunk to the two intervals around the best, ten
    rounds down to SI_BRACKET; the bound is -min over every value evaluated.
    This is exact because f is quasiconvex in p: M(p) is affine in p, so
    lambda_max and -lambda_min are convex, and f increases with one of them.
    A convex function is flat only at its minimum, so every sublevel set of f
    is an interval, two equal values have a minimum between them, and every
    local minimum is the global one.
    """
    if abs(delta) <= DELTA_ZERO_WINDOW:
        return q_mu(pair)
    cx, cz = pair.overlaps.max(axis=1), pair.overlaps.max(axis=0)
    if abs(delta - 1.0) <= DELTA_ONE_WINDOW:
        def objective(p):
            return -np.linalg.eigvalsh(_mixed_matrix(pair, -np.log2(cx), -np.log2(cz), p))[..., 0]
    else:
        dp = hconj(delta)
        lx, lz = np.log(cx / pair.c) / dp, np.log(cz / pair.c) / dp
        spread = math.expm1(min(max(lx.max(), lz.max()), 700.0))   # the largest offset, capped
        if dp < 0 and -dp * pair.d * np.finfo(float).eps * spread > SI_ROUNDING:
            raise FloatingPointError(f"q_delta_state_independent at delta = {delta:g}: the weights "
                                     f"span {spread:.1e}, beyond what float64 resolves")
        nx, nz = np.expm1(lx), np.expm1(lz)

        def objective(p):
            lam = np.linalg.eigvalsh(_mixed_matrix(pair, nx, nz, p))
            ext = lam[..., -1] if dp > 0 else lam[..., 0]
            return math.log2(pair.c) + dp * np.log1p(ext) / math.log(2.0)

    lo, hi, best = 0.0, 1.0, math.inf
    while hi - lo > SI_BRACKET:
        grid = np.linspace(lo, hi, 33)
        vals = objective(grid)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 32)]
    return -best


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
    """Conditional min-entropy H_min(A|B) = H^up_inf(A|B), exact and certified:
    (value, width in bits of the certified interval around it)."""
    res = cond_entropy_up(rho, math.inf, dims)
    return res.value, res.residual


# ---------------------------------------------------------------------------
# sides of each relation shape at an instance (registered in `inequalities.SUITES`)
# ---------------------------------------------------------------------------

RHO_B = "rho_B"   # a weight slot filled by the state's own marginal on B

# an optimised relation's constant in bits, by name; the q_delta ones read rho_A
CONSTANTS = {
    "q_MU": lambda inst: q_mu(inst.pair),
    "r_H": lambda inst: hall_bound(inst.pair),
    "q_delta": lambda inst: q_delta(inst.rho.marginal([0]), inst.pair, inst.delta),
    "q_delta oriented": lambda inst: q_delta_oriented(inst.rho.marginal([0]), inst.pair, inst.delta),
    "q_delta_SI": lambda inst: q_delta_state_independent(inst.pair, inst.delta),
    "r_CP": lambda inst: r_cp(inst.pair),
    "r(X,Z)": lambda inst: r_xz(inst.pair),
}


def rmu_sides(inst: Instance):
    """q_MU <= H_a(X) + H_a^(Z), X and Z being rho_A measured in the pair's bases."""
    px = measurement_pmf(inst.rho, inst.pair.basis_x).probabilities
    pz = measurement_pmf(inst.rho, inst.pair.basis_z).probabilities
    big = classical_renyi_entropy(px, inst.alpha) + classical_renyi_entropy(pz, inst.beta)
    return q_mu(inst.pair), big, []


def const_comp_sides(inst: Instance):
    """H_a(rho_X) - q_d(rho, X, Z) <= log sum_x max_z c_xz."""
    px = measurement_pmf(inst.rho, inst.pair.basis_x).probabilities
    small = classical_renyi_entropy(px, inst.alpha) - q_delta_oriented(inst.rho, inst.pair, inst.delta)
    return small, float(np.log2(np.sum(inst.pair.overlaps.max(axis=1)))), []


def hall_classical_sides(inst: Instance):
    """Shannon/von Neumann baseline: I(X:Y) + I(Z:Y) <= log(d^2 c) on a cq state."""
    small = (measured_mutual_info(inst.rho, inst.pair.basis_x, 1.0).value
             + measured_mutual_info(inst.rho, inst.pair.basis_z, 1.0).value)
    return small, hall_bound(inst.pair), []


def _cond_term(state: DensityOperator, order: float, weight):
    """(H_order(A|B) against the weight on B, or H^up when it is None; the solves run)."""
    if weight is None:
        res = cond_entropy_up(state, order)
        return res.value, [res]
    return gen_cond_entropy(state, weight, order, state.layout, weight_pos=1), []


def uncertainty_sides(inst: Instance):
    """H_joint(A|B) + const <= H^up_x(X|B) + H_z(Z|B), X and Z being A measured
    in the pair's bases; the Z and joint terms against their weights."""
    (x_order, z_order, joint_order), (z_weight, joint_weight) = inst.terms, inst.weights
    x, x_solves = _cond_term(measure(inst.rho, inst.pair.basis_x), x_order, None)
    z, z_solves = _cond_term(measure(inst.rho, inst.pair.basis_z), z_order, z_weight)
    joint, joint_solves = _cond_term(inst.rho, joint_order, joint_weight)
    return joint + CONSTANTS[inst.const](inst), x + z, x_solves + z_solves + joint_solves


def exclusion_sides(inst: Instance):
    """I^down_x(X:B) + I_z(Z:B) <= const - H_joint(A|B); `measured_mutual_info`
    solves the measured terms through their classical register."""
    (x_order, z_order, joint_order), (z_weight, joint_weight) = inst.terms, inst.weights
    z_weight = inst.rho.marginal([1]).mat if z_weight is RHO_B else z_weight
    x = measured_mutual_info(inst.rho, inst.pair.basis_x, x_order, None)
    z = measured_mutual_info(inst.rho, inst.pair.basis_z, z_order, z_weight)
    joint, joint_solves = _cond_term(inst.rho, joint_order, joint_weight)
    return x.value + z.value, CONSTANTS[inst.const](inst) - joint, [x, z] + joint_solves


# ---------------------------------------------------------------------------
# samplers for the order constraints
# ---------------------------------------------------------------------------

def sample_sdg_orders(rng: np.random.Generator, twin: bool):
    """(alpha, beta, gamma, delta) satisfying the state-dependent-bound
    constraints; the common order mu is fixed first and the rest solved.
    `twin` ties (alpha, beta) and (gamma, delta), else (alpha, gamma) and (beta, delta);
    the twin constraint is the pairing rule with beta and gamma swapped."""
    for _ in range(2000):
        mu = float(rng.uniform(0.52, 3.0))
        if abs(mu - 1.0) < 1e-3:
            continue
        m = 2.0 - 1.0 / mu
        # the order tied to alpha by mu is bounded by 1/tied >= m
        top = (1.0 / m if twin else min(1.0 / m, 4.0)) if m > 0 else 4.0
        tied = float(rng.uniform(0.52, top))
        den = mu * tied - 1.0
        if abs(den) < 1e-9:
            continue
        a = (2.0 * mu * tied - mu - tied) / den
        free = float(rng.uniform(0.52, 4.0))
        den2 = mu * free - 2.0 * mu + 1.0
        if abs(den2) < 1e-9:
            continue
        d = (free - mu) / den2
        if sdg_condition(a, free, tied, d)[1]:
            return (a, tied, free, d) if twin else (a, free, tied, d)
    raise RuntimeError("could not sample orders for the state-dependent bound")


def sample_ier_orders(rng: np.random.Generator):
    """(symmetric, alpha, beta, gamma): a fair coin picks the symmetric or the
    oriented exclusion relation, then orders meeting its constraint are drawn."""
    symmetric = bool(rng.uniform() < 0.5)
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
            return symmetric, a, b, g
        b = float(rng.uniform(0.52, 1.9))
        mu = 1.0 / (2.0 - b)
        g = float(rng.uniform(0.52, min(1.0 / b, 4.0)))
        den = mu * g - 1.0
        if abs(den) < 1e-9:
            continue
        a = (2.0 * mu * g - mu - g) / den
        if not (a >= 0.5 and math.isfinite(a) and b * g <= 1.0 + 1e-12):
            continue
        return symmetric, a, b, g
    raise RuntimeError("could not sample exclusion-relation orders")


def sample_marcos_triple(rng: np.random.Generator):
    """Surface triple with every order >= 1/2 and negative sign product."""
    for _ in range(2000):
        t = sample_triple(rng, "general")
        if min(t.alpha, t.beta, t.gamma) >= 0.5 and \
                (t.alpha - 1) * (t.beta - 1) * (t.gamma - 1) < 0:
            return t
    raise RuntimeError("could not sample a triple for the measured uncertainty relation")


def _reverse_chain_triple(rng: np.random.Generator):
    triple = sample_triple(rng, "chain")
    while triple.direction != REVERSE:
        triple = sample_triple(rng, "chain")
    return triple.as_tuple()


# ---------------------------------------------------------------------------
# the draw of every uncertainty and exclusion suite (registered in `inequalities.SUITES`)
# ---------------------------------------------------------------------------

def draw(tag: str, rng: np.random.Generator, dims) -> Instance:
    """One seeded instance of an uncertainty suite on (d_A, d_B).  An
    optimised suite picks its reported orders, the orientation of `pair`, the
    terms' orders and weights (None: optimised) and the constant's name."""
    da, db = dims
    pair = random_pair(da, rng)
    # drawn for every tag, built only where read
    rho_factor = random_density_factor(da * db, int(rng.integers(1, da * db + 1)), rng)
    tau_factor = random_density_factor(db, db, rng)

    if tag in ("rmu", "const-comp"):
        rho_a = random_density(da, int(rng.integers(1, da + 1)), rng)
        if tag == "rmu":
            a = float(rng.choice([0.5, 0.8, 1.0, 2.0, 5.0, math.inf]))
            return Instance(tag, dims, a, hatconj(a), math.nan, None, FORWARD, rho_a, pair=pair)
        alpha, delta = _sample_const_comp_orders(rng)
        return Instance(tag, dims, alpha, math.nan, math.nan, delta, REVERSE, rho_a, pair=pair)
    if tag == "hall-classical":
        rho_ay = random_cq_state(da, db, rng)
        return Instance(tag, rho_ay.layout.dims, 1.0, 1.0, 1.0, None, REVERSE, rho_ay, pair=pair)

    rho = density_from_factor(rho_factor, dims=(da, db))
    tau_b = density_from_factor(tau_factor).mat
    delta, note, terms = None, "", None   # terms default to (beta, gamma, alpha)
    z_weight = joint_weight = tau_b
    if tag in ("gbur", "result2"):
        alpha, beta, gamma = _reverse_chain_triple(rng)
        const = "q_MU" if tag == "gbur" else "r_H"
    elif tag in ("sdgbur", "sigbur"):
        variant = ("xz", "zx", "both")[int(rng.integers(3))] if tag == "sdgbur" else "both"
        alpha, beta, gamma, delta = sample_sdg_orders(rng, variant == "both")
        if variant != "both":
            pair, const = (pair if variant == "xz" else pair.swapped()), "q_delta oriented"
        else:
            z_weight, const = None, "q_delta" if tag == "sdgbur" else "q_delta_SI"
        note = f"variant {variant}" if tag == "sdgbur" else ""
    elif tag == "marcos":
        t = sample_marcos_triple(rng)
        alpha, beta, gamma = t.alpha, t.gamma, t.beta
        terms = (gamma, beta, alpha)
        z_weight, joint_weight, const = None, None, "q_MU"
    elif tag == "res2c":
        alpha = float(rng.uniform(0.55, 1.9))
        beta, gamma = 1.0 / alpha, math.nan
        terms = (alpha, beta, math.inf)
        z_weight, joint_weight, const = RHO_B, None, "r_H"
    elif tag == "ier":
        symmetric, alpha, beta, gamma = sample_ier_orders(rng)
        orientation = "xz" if rng.uniform() < 0.5 else "zx"
        if symmetric:
            z_weight = joint_weight = None
            const, note = "r_CP", "symmetric"
        else:
            pair = pair if orientation == "xz" else pair.swapped()
            const, note = "r(X,Z)", f"orientation {orientation}"
    else:   # iier-opt: general orders, or the twin-order special case
        optimal = bool(rng.uniform() < 0.5)
        alpha, gamma = float(rng.uniform(0.5, 1.5)), math.nan
        if optimal:
            beta, terms = None, (0.5, 1.5, math.inf)
            z_weight = joint_weight = None
            const, note = "r_CP", "optimal orders"
        else:
            beta = 2.0 - alpha
            terms = (alpha, beta, math.inf)
            const = "r(X,Z)"
    return Instance(tag, dims, alpha, beta, gamma, delta, REVERSE, rho, (z_weight, joint_weight),
                    pair, terms or (beta, gamma, alpha), const, note)


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
