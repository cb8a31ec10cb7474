"""Entropic quantities built on the sandwiched Renyi divergence.

All logarithms are base 2 (values in bits) and 0*log(0) = 0.  Every spectrum
comes from the PSD spectral kernel of `linalg`, on single matrices and on the
optimiser's stacks alike: per matrix, negative eigenvalues inside the clamp
band count as 0 and lower ones raise `NotPositiveSemidefinite` (rho is checked
where it enters, so its sandwich w rho w^dagger gets the product's rounding
band), and eigenvalues below the support cutoff are dropped for every exponent
and from every logarithm (pseudoinverse convention).  One formula,
`_renyi_log_trace`, gives (1/(alpha-1)) log2 tr X^alpha for divergences,
entropies and the optimisers' values; `_tr_log2` gives their alpha -> 1
limits.

Optimised quantities (conditional entropy with optimisation, mutual
informations) minimise D_alpha(rho || tau (x) sigma) over one weight factor
sigma in `_optimize_weight`.  At every finite order it runs the damped
stationarity fixed point sigma ~ M_sigma**(alpha/(2 alpha - 1)): the value it
reports is the divergence at the state it returns, and its residual is a
Frank-Wolfe bound on the distance from optimal.  Inside the order-one window
the optimum is the marginal, with no iteration.  The mirror-descent loop over
density matrices, `optimize_density`, now serves alpha = inf only, at the
stand-in order INF_ORDER.  Its qubit reference, a Bloch-ball grid search,
lives with the tests (`tests/bloch_reference.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    EIG_CUTOFF,
    InvalidOrder,
    SystemLayout,
    as_layout,
    check_hermitian,
    congruence_eigvalsh,
    dagger,
    embed_block,
    frac_power,
    partial_trace,
    psd_eigh,
    psd_eigvalsh,
    schatten_norm,
    spectral_power,
    support_projector,
    _hermitian,
)
from .states import DensityOperator, Pmf

SUPPORT_TOL = 1e-9
ALPHA_ONE_WINDOW = 1e-6


class OptimizerDiverged(RuntimeError):
    pass


def _mat(x) -> np.ndarray:
    """The matrix of a state or weight given as a DensityOperator or an array."""
    if isinstance(x, DensityOperator):
        return x.mat
    return check_hermitian(x)


# ---------------------------------------------------------------------------
# classical quantities
# ---------------------------------------------------------------------------

def _pmf(p) -> np.ndarray:
    if isinstance(p, Pmf):
        return p.probabilities
    return np.asarray(p, dtype=float)


def classical_renyi_entropy(p, alpha: float) -> float:
    p = _pmf(p)
    p = p[p > 0.0]
    if alpha < 0.0:
        raise InvalidOrder("entropy order must be nonnegative")
    if math.isinf(alpha):
        return float(-np.log2(p.max()))
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return float(-np.sum(p * np.log2(p)))
    if alpha == 0.0:
        return float(np.log2(len(p)))
    return float(np.log2(np.sum(p ** alpha)) / (1.0 - alpha))


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """Order-alpha divergence between two pmfs over the same index set."""
    p, q = _pmf(p), _pmf(q)
    if p.shape != q.shape:
        raise ValueError("pmfs must share an index set")
    if alpha < 0.0:
        raise InvalidOrder("divergence order must be nonnegative")
    sup_p = p > 0.0
    dominated = bool(np.all(q[sup_p] > 0.0))
    if math.isinf(alpha):
        if not dominated:
            return math.inf
        return float(np.log2(np.max(p[sup_p] / q[sup_p])))
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        if not dominated:
            return math.inf
        return float(np.sum(p[sup_p] * np.log2(p[sup_p] / q[sup_p])))
    if alpha == 0.0:
        return float(-np.log2(np.sum(q[sup_p])))
    if alpha > 1.0 and not dominated:
        return math.inf
    common = sup_p & (q > 0.0)
    if not np.any(common):
        return math.inf
    s = np.sum(p[common] ** alpha * q[common] ** (1.0 - alpha))
    return float(np.log2(s) / (alpha - 1.0))


# ---------------------------------------------------------------------------
# quantum divergence and entropy
# ---------------------------------------------------------------------------

def _support_flags(rho: np.ndarray, proj: np.ndarray):
    """(overlapping, dominated) support relations of rho w.r.t. the projector `proj`."""
    inside = float(np.real(np.trace(proj @ rho @ proj)))
    total = float(np.real(np.trace(rho)))
    return inside > SUPPORT_TOL * max(total, 1.0), total - inside <= SUPPORT_TOL * max(total, 1.0)


def _renyi_log_trace(lam: np.ndarray, live: np.ndarray, alpha: float) -> np.ndarray:
    """(1/(alpha-1)) log2 tr X**alpha from the ascending spectra of a stack,
    summed over each support; log2 lambda_max for alpha = inf."""
    top = np.maximum(lam[..., -1], 1e-300)
    if math.isinf(alpha):
        return np.log2(top)
    ratio = np.where(live, lam / top[..., None], 1.0)
    logq = alpha * np.log2(top) + np.log2(np.sum(np.where(live, ratio ** alpha, 0.0), axis=-1))
    return logq / (alpha - 1.0)


def _tr_log2(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """tr rho log2 sigma per matrix of a PSD stack, the log taken on each support
    (so an optimiser's candidates must keep their eigenvalues above the cutoff)."""
    w, v, live = psd_eigh(sigma)
    logs = (v * np.log2(np.where(live, w, 1.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return np.einsum("ij,...ji->...", rho, logs).real


def _sandwich_exponent(alpha: float) -> float:
    """c with D_alpha = (1/(alpha-1)) log2 tr (sigma^c rho sigma^c)**alpha."""
    return -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)


def _divergence_any_order(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched divergence for alpha in (0, inf]; no DPI-range gate."""
    psd_eigvalsh(rho)   # the sandwich of a checked rho needs only the rounding band
    overlapping, dominated = _support_flags(rho, support_projector(sigma))
    if not overlapping:
        return math.inf
    if alpha >= 1.0 - ALPHA_ONE_WINDOW and not dominated:
        return math.inf
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return float(_tr_log2(rho, rho) - _tr_log2(rho, sigma))
    w = frac_power(sigma, _sandwich_exponent(alpha))
    return float(_renyi_log_trace(*congruence_eigvalsh(w, rho), alpha))


def sandwiched_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence D_alpha(rho || sigma) in bits.

    alpha must lie in [1/2, inf] (the data-processing range); alpha within
    1e-6 of 1 routes to the quantum relative entropy and alpha = inf to the
    max-divergence closed form.  The value is +inf for disjoint supports, and
    from alpha = 1 - 1e-6 up whenever sigma does not dominate rho.
    """
    if not (alpha >= 0.5):
        raise InvalidOrder(f"divergence order {alpha} below 1/2")
    return _divergence_any_order(_mat(rho), _mat(sigma), alpha)


def renyi_entropy(rho, alpha: float) -> float:
    """H_alpha of a density operator; alpha in [0, inf]."""
    if alpha < 0.0:
        raise InvalidOrder("entropy order must be nonnegative")
    rho = _mat(rho)
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return -float(_tr_log2(rho, rho))
    return -float(_renyi_log_trace(*psd_eigvalsh(rho), alpha))


def weighted_norm(y, p: float, sigma, tau) -> float:
    """|| sigma^(1/2p) Y tau^(1/2p) ||_p for strictly positive weights."""
    y = np.asarray(y, dtype=complex)
    e = 0.0 if math.isinf(p) else 0.5 / p
    return schatten_norm(frac_power(_mat(sigma), e) @ y @ frac_power(_mat(tau), e), p)


# ---------------------------------------------------------------------------
# batched divergence objectives over a weight factor
# ---------------------------------------------------------------------------

@dataclass
class _DivergenceObjective:
    """Vectorised sigma |-> D_alpha(rho || fixed (x) sigma) on one block."""

    rho: np.ndarray
    alpha: float
    layout: SystemLayout
    positions: list[int]
    fixed_pow: np.ndarray | None   # full-space fixed-weight factor, already at power c
    log_fixed_term: float = 0.0    # used only on the alpha = 1 route
    rho_block: np.ndarray | None = None

    def __call__(self, sigmas: np.ndarray) -> np.ndarray:
        a = self.alpha
        if abs(a - 1.0) <= ALPHA_ONE_WINDOW:
            return self.log_fixed_term - _tr_log2(self.rho_block, sigmas)
        wc = embed_block(self.layout, frac_power(sigmas, _sandwich_exponent(a)), self.positions)
        if self.fixed_pow is not None:
            wc = self.fixed_pow @ wc
        return _renyi_log_trace(*congruence_eigvalsh(wc, self.rho), a)


def _divergence_objective(rho: np.ndarray, alpha: float, dims, opt_positions, fixed=None):
    """Build the vectorised objective for optimising one contiguous weight block;
    `fixed`, if given, is the weight on the subsystems outside that block."""
    psd_eigvalsh(rho)
    layout = as_layout(dims)
    opt_positions = sorted(opt_positions)
    rest = [k for k in range(len(layout.dims)) if k not in opt_positions]
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        const = float(_tr_log2(rho, rho))
        if fixed is not None:
            const -= float(_tr_log2(partial_trace(rho, layout, rest), _hermitian(fixed)))
        rho_block = partial_trace(rho, layout, opt_positions)
        return _DivergenceObjective(rho, alpha, layout, opt_positions, None, const, rho_block)
    c = _sandwich_exponent(alpha)
    fixed_pow = None if fixed is None else embed_block(layout, frac_power(fixed, c), rest)
    return _DivergenceObjective(rho, alpha, layout, opt_positions, fixed_pow)


# ---------------------------------------------------------------------------
# optimisation over density matrices
# ---------------------------------------------------------------------------

# Optimiser constants.  Mirror descent (alpha = inf) stops when an interior-scale
# step improves less than FTOL; a step taken at the boundary scale never counts as
# convergence by itself, since its log-chart gradient vanishes while the boundary
# optimum is still far off.  The fixed point (finite orders) uses the FP_ ones,
# MAX_ITER, RESIDUAL_TOL and FLOOR.
MAX_ITER = 10_000
FTOL = 1e-10
STALL_WINDOW = 40     # stop when a whole window improves less than STALL_TOL
STALL_TOL = 1e-9
RESIDUAL_TOL = 1e-4
STEP0 = 0.5
STEP_CAP = 1e6
BIG_STEP_CAP = 1e16
GRAD_H = 1e-6
FLOOR = 1e-11         # kept a decade above the spectral cutoff
INF_ORDER = 1e6       # finite stand-in for alpha = inf in optimised quantities
FP_GAP_TOL = 1e-12    # bits: the fixed point stops once its optimality gap is below this
FP_FTOL = 1e-13       # ... or once a step changes it by no more than rounding (relative)
FP_ETA_CAP = 16.0
FP_ETA_MIN = 2.0 ** -30
MI_DOWN_ROUNDS = 40   # alternating rounds of mutual_info_down
MI_DOWN_TOL = 1e-9
# why a solve stopped, best to worst: the optimality test held (the fixed point's
# gap is at most FP_GAP_TOL; mirror descent's log-chart gradient vanished), an
# accepted step improved less than FP_FTOL (relative) or an interior step less
# than FTOL, a STALL_WINDOW improved less than STALL_TOL, no trial step
# improved, or MAX_ITER ran out
STOPS = ("gradient", "ftol", "stall", "no_step", "max_iter")


@dataclass
class OptimizerResult:
    optimum: DensityOperator
    value: float
    iterations: int
    # fixed point: the Frank-Wolfe bound, in bits, on the distance from optimal;
    # mirror descent: the last accepted step's improvement (the window's on a
    # stall), 0 on a gradient stop, inf when no step was ever accepted
    residual: float
    stop: str         # one of STOPS


def _herm_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of d x d Hermitian matrices."""
    mats = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[i, j] = x[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[i, j] = -1j / math.sqrt(2.0)
            y[j, i] = 1j / math.sqrt(2.0)
            mats.append(y)
    return np.array(mats)


def _chart(lstack: np.ndarray, floor: float | None = None):
    """(densities exp(L) / tr exp(L), eigenvectors v, eigenvalues ew) of a stack
    of log-chart points, the spectra clipped at `floor` and renormalised if given;
    point k's log is (v[k] * log(ew[k])) @ v[k]^dagger."""
    w, v = np.linalg.eigh(lstack)
    ew = np.exp(w - w.max(axis=-1, keepdims=True))
    ew = ew / ew.sum(axis=-1, keepdims=True)
    if floor is not None:
        ew = np.clip(ew, floor, None)
        ew = ew / ew.sum(axis=-1, keepdims=True)
    return (v * ew[..., None, :]) @ v.conj().swapaxes(-1, -2), v, ew


def _floored(sigma: np.ndarray):
    """(sigma with its spectrum clipped at FLOOR and renormalised, log of the clipped spectrum)."""
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w.real, FLOOR, None)
    return (v * (w / w.sum())) @ dagger(v), (v * np.log(w)) @ dagger(v)


def _value_at(objective, sigma: np.ndarray) -> float:
    """Objective value at one density matrix, passed as a one-matrix stack."""
    return float(objective(sigma[None])[0])


def _richardson_value(objective, sigma: np.ndarray, dim: int) -> float:
    """Linear epsilon -> 0 limit of the objective along the mixing path."""
    e1, e2 = 1e-6, 1e-8
    u = np.eye(dim, dtype=complex) / dim
    v1 = _value_at(objective, (1.0 - e1) * sigma + e1 * u)
    v2 = _value_at(objective, (1.0 - e2) * sigma + e2 * u)
    return (e1 * v2 - e2 * v1) / (e1 - e2)


def optimize_density(objective, dim: int, init: np.ndarray | None = None) -> OptimizerResult:
    """Minimise a real objective over the density matrices of dimension dim.

    Mirror descent (exponentiated gradient) in the log chart exp(L) / tr exp(L),
    from `init` or the maximally mixed state: central-difference gradients, a
    line search over an interior and a boundary step scale, a drift line search
    every 10 steps.  The value is the smaller of the objective at the floored
    optimum and its epsilon -> 0 extrapolation toward the maximally mixed state.
    `stop` names the exit taken, one of STOPS.

    `objective` must accept a (k, dim, dim) stack and return (k,) values,
    also for k = 1: it is never handed a single 2-D matrix.
    """
    basis = _herm_basis(dim)
    m = len(basis)
    sigma = np.eye(dim, dtype=complex) / dim if init is None else _floored(init)[0]
    lmat = _floored(sigma)[1]
    fval = _value_at(objective, sigma)
    eta = STEP0
    eta_big = 64.0 * eta
    residual = math.inf
    it = 0
    window_anchor = fval
    drift_mark = lmat.copy()
    while it < MAX_ITER:
        it += 1
        if it % STALL_WINDOW == 0:
            if window_anchor - fval < STALL_TOL:
                residual = window_anchor - fval
                stop = "stall"
                break
            window_anchor = fval
        if it % 10 == 0:
            # line search along the averaged drift: narrow curved valleys
            # otherwise reduce plain descent to a zigzag crawl
            drift = lmat - drift_mark
            if np.abs(drift).max() > 1e-14:
                ss = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
                js, v, ew = _chart(lmat[None] + ss[:, None, None] * drift[None], FLOOR)
                jf = np.asarray(objective(js))
                k = int(np.argmin(jf))
                if np.isfinite(jf[k]) and float(jf[k]) < fval - 1e-15:
                    residual = max(residual, fval - float(jf[k]))
                    fval, sigma = float(jf[k]), js[k]
                    lmat = (v[k] * np.log(ew[k])) @ dagger(v[k])
            drift_mark = lmat.copy()
        probes = np.concatenate([lmat[None] + GRAD_H * basis, lmat[None] - GRAD_H * basis])
        fs = objective(_chart(probes)[0])
        grad = (fs[:m] - fs[m:]) / (2.0 * GRAD_H)
        gmat = np.tensordot(grad, basis, axes=(0, 0))
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-9:
            residual = 0.0
            stop = "gradient"
            break
        accepted = False
        while eta > 1e-13:
            # two step scales probed at once: boundary optima need step
            # lengths orders of magnitude beyond the interior-progress scale
            etas = np.array([eta, eta / 2.0, eta / 4.0, eta / 8.0,
                             eta_big, eta_big / 8.0])
            trial_sig, v, ew = _chart(lmat[None] - etas[:, None, None] * gmat[None], FLOOR)
            trial_f = np.asarray(objective(trial_sig))
            good = np.where(np.isfinite(trial_f) & (trial_f < fval - 1e-15))[0]
            if len(good):
                k = int(good[np.argmin(trial_f[good])])
                residual = fval - float(trial_f[k])
                fval = float(trial_f[k])
                sigma = trial_sig[k]
                lmat = (v[k] * np.log(ew[k])) @ dagger(v[k])
                boundary_step = k >= 4
                if boundary_step:
                    eta_big = min(eta_big * 8.0, BIG_STEP_CAP)
                else:
                    eta = min(etas[k] * 1.5, STEP_CAP)
                    eta_big = max(eta_big / 2.0, 64.0 * eta)
                accepted = True
                break
            eta /= 16.0
            eta_big = max(eta_big / 16.0, 64.0 * eta)
        if not accepted:
            stop = "no_step"
            break
        if residual < FTOL and not boundary_step:
            stop = "ftol"
            break
    else:
        stop = "max_iter"
    if stop == "max_iter" and residual > RESIDUAL_TOL:
        raise OptimizerDiverged(f"no convergence after {it} iterations (residual {residual:.2e})")
    sigma = _floored(sigma)[0]
    fval = min(_value_at(objective, sigma), _richardson_value(objective, sigma, dim))
    return OptimizerResult(DensityOperator(sigma, SystemLayout((dim,))), fval, it, residual, stop)


# ---------------------------------------------------------------------------
# conditional entropies and mutual informations
# ---------------------------------------------------------------------------

def gen_cond_entropy(rho, tau, alpha: float, dims, weight_pos: int = 1) -> float:
    """H_alpha(rho_AB || tau) = -D_alpha(rho_AB || id (x) tau) with tau at weight_pos."""
    return -_divergence_any_order(_mat(rho), embed_block(dims, _mat(tau), [weight_pos]), alpha)


def cond_entropy_down(rho, alpha: float, dims=None) -> float:
    """Conditional entropy against the actual marginal (no optimisation)."""
    layout = _layout_of(rho, dims)
    rho = _mat(rho)
    rest = list(range(1, len(layout.dims)))
    tau = partial_trace(rho, layout, rest)
    return -_divergence_any_order(rho, embed_block(layout, tau, rest), alpha)


def _layout_of(rho, dims) -> SystemLayout:
    if dims is not None:
        return as_layout(dims)
    if isinstance(rho, DensityOperator):
        return rho.layout
    raise ValueError("subsystem dimensions required")


@dataclass
class _FixedPoint:
    """sigma |-> D_alpha(rho || tau (x) sigma) at a finite order, with sigma
    restricted to supp rho_P (rho_P the marginal on the optimised block P).

    Every minimiser lives there: pinching the block onto supp rho_P and
    renormalising never raises the divergence.  With Q = tr Y**alpha and
    Y = rho^(1/2) (tau (x) sigma)**s rho^(1/2), s = (1 - alpha)/alpha, one
    eigendecomposition of Y gives both the value (1/(alpha - 1)) log2 Q and
    M = tr_rest[(tau**s (x) id) rho^(1/2) Y**(alpha-1) rho^(1/2)], the factor
    of dQ = alpha tr[M d(sigma**s)].  The weight's spectrum is the product of
    tau's and sigma's, cut as `linalg` cuts every spectrum, so the value is
    `sandwiched_divergence` at the returned sigma.  Points are log sigma in
    the eigenbasis `basis` of rho_P on its support.
    """

    alpha: float
    basis: np.ndarray   # (d_P, r): the support eigenvectors of rho_P
    c: np.ndarray       # rho^(1/2) (tau's eigenbasis (x) basis), indexed (row, rest, r)
    tau: np.ndarray     # tau's spectrum on the rest, 0 off its support
    tau_s: np.ndarray   # the same to the power s

    @classmethod
    def build(cls, rho: np.ndarray, alpha: float, layout: SystemLayout, positions, weight):
        """The problem, and log sigma of the first iterate sigma = rho_P in `basis`."""
        lam, vecs, live = psd_eigh(partial_trace(rho, layout, positions))
        basis = vecs[:, live]
        lo, hi = positions[0], positions[-1]
        front, back = math.prod(layout.dims[:lo]), math.prod(layout.dims[hi + 1:])
        if weight is None:
            weight = (np.ones(front * back), np.eye(front * back), np.ones(front * back, dtype=bool))
        b = spectral_power(*psd_eigh(rho), 0.5).reshape(len(rho), front, -1, back)
        c = np.einsum("ifpb,pj,fbk->ikj", b, basis, weight[1].reshape(front, back, -1))
        tau, live_tau = np.where(weight[2], weight[0], 1.0), weight[2]
        problem = cls(alpha, basis, c, np.where(live_tau, tau, 0.0),
                      np.where(live_tau, tau ** ((1.0 - alpha) / alpha), 0.0))
        return problem, np.diag(np.log(lam[live])).astype(complex)

    def at(self, log_sigma: np.ndarray) -> "_Point":
        """The iterate exp(log_sigma) / tr, its spectrum clipped at FLOOR: in
        the log chart an eigenvector of a vanishing eigenvalue stops turning."""
        a = self.alpha
        s = (1.0 - a) / a
        w, v = np.linalg.eigh(log_sigma)
        logl = np.maximum(w - w.max() - math.log(np.sum(np.exp(w - w.max()))), math.log(FLOOR))
        logl -= math.log(np.sum(np.exp(logl)))
        cv = self.c @ v                          # sigma's eigenbasis on P
        spec = self.tau[:, None] * np.exp(logl)
        keep = spec > EIG_CUTOFF * spec.max()
        k = (cv * np.where(keep, np.where(keep, spec, 1.0) ** (0.5 * s), 0.0)).reshape(len(cv), -1)
        lam, vy, live = psd_eigh(k @ dagger(k))  # Y
        ratio = np.where(live, lam / lam[-1], 1.0)
        g = dagger(vy) @ cv.reshape(len(cv), -1)
        weights = np.outer(np.where(live, ratio ** (a - 1.0), 0.0), self.tau_s).reshape(-1, 1)
        g = g.reshape(-1, len(logl))
        # M in sigma's eigenbasis, scaled so that tr(sigma grad Q) / Q = 1 - alpha
        m = dagger(g * weights) @ g
        m /= np.sum(np.diag(m).real * np.exp(s * logl))
        return _Point(v, logl, float(_renyi_log_trace(lam, live, a)), m, a)


@dataclass
class _Point:
    """One iterate: sigma = vecs diag(exp(logl)) vecs^dagger in the support
    basis, its value in bits and the scaled M in sigma's eigenbasis."""

    vecs: np.ndarray
    logl: np.ndarray
    value: float
    m: np.ndarray
    alpha: float

    @property
    def log_sigma(self) -> np.ndarray:
        return (self.vecs * self.logl) @ dagger(self.vecs)

    @property
    def rounding(self) -> float:
        """Changes of the value below this are rounding: log2 Q / (alpha - 1)
        carries an error of about FP_FTOL max(1, |log2 Q|) / |alpha - 1|."""
        return FP_FTOL * max(1.0, abs(self.value), 1.0 / abs(self.alpha - 1.0))

    def step(self) -> np.ndarray:
        """log M - k log sigma, k = (2 alpha - 1)/alpha: a multiple of the
        identity exactly at a fixed point sigma = M**(1/k) / tr."""
        w, u = np.linalg.eigh(self.m)
        u = self.vecs @ u
        log_m = (u * np.log(np.maximum(w, w[-1] * 1e-300))) @ dagger(u)
        return log_m - (2.0 - 1.0 / self.alpha) * self.log_sigma

    def gap(self) -> float:
        """Frank-Wolfe bound, in bits, on how far the value lies above the optimum.

        Q is convex in sigma for alpha > 1 and concave for 1/2 <= alpha < 1
        (Frank-Lieb, arXiv:1306.5358), so Q(sigma) - Q* <= tr(sigma grad Q)
        - lambda_min(grad Q) when minimised, and the mirror image when
        maximised.  grad Q comes from M through the Daleckii-Krein divided
        differences of x**s on sigma's spectrum.
        """
        a = self.alpha
        s = (1.0 - a) / a
        u = self.logl[:, None] - self.logl[None, :]
        safe = np.where(u == 0.0, 1.0, u)
        slope = np.where(u == 0.0, s, np.expm1(s * safe) / np.expm1(safe))
        grad = a * np.exp((s - 1.0) * self.logl)[None, :] * slope * self.m
        h = np.linalg.eigvalsh(grad)
        t = float(np.sum(np.diag(grad).real * np.exp(self.logl)))
        x = max(t - h[0] if a > 1.0 else h[-1] - t, 0.0)
        if a > 1.0:
            return math.inf if x >= 1.0 else -math.log1p(-x) / ((a - 1.0) * math.log(2.0))
        return math.log1p(x) / ((1.0 - a) * math.log(2.0))


def _traceless(h: np.ndarray) -> np.ndarray:
    return h - np.trace(h).real / len(h) * np.eye(len(h))


def _fixed_point_iterates(problem: _FixedPoint, start: np.ndarray):
    """The accepted iterates of the damped fixed point from log sigma = `start`;
    the value never rises.

    Each step is log sigma + eta (log M - k log sigma).  eta is halved until
    the value does not rise.  After a success the next eta is the secant
    estimate that zeroes the new direction along the last one, within
    [eta/4, 2 eta] and capped at 1/k (the plain fixed point) or FP_ETA_CAP,
    which covers k = 0 at alpha = 1/2.  A step whose value rises by no more
    than rounding yields the point again.  The sequence ends when no eta
    above FP_ETA_MIN keeps the value from rising.
    """
    point = problem.at(start)
    cap = min(1.0 / max(2.0 - 1.0 / problem.alpha, 1e-300), FP_ETA_CAP)
    eta, last = cap, None
    while True:
        yield point
        direction = point.step()
        if last is not None:
            d0, d1 = _traceless(last), _traceless(direction)
            den = np.vdot(d0, d0 - d1).real
            guess = eta * np.vdot(d0, d0).real / den if den > 0.0 else 2.0 * eta
            eta = min(max(guess, eta / 4.0), 2.0 * eta, cap)
        base = point.log_sigma
        while True:
            trial = problem.at(base + eta * direction)
            if trial.value <= point.value:
                break
            if trial.value - point.value <= point.rounding:
                trial = point   # a rise within rounding: stay, which ends the solve
                break
            eta /= 2.0
            if eta < FP_ETA_MIN:
                return
        point, last = trial, direction


def _solve_fixed_point(rho: np.ndarray, alpha: float, layout: SystemLayout, opt_positions,
                       weight) -> OptimizerResult:
    """Minimise D_alpha(rho || tau (x) sigma) over sigma at a finite order by the
    damped stationarity fixed point, from sigma = rho_P.  `residual` is the
    Frank-Wolfe bound on the distance from optimal; `stop` is "gradient" once
    it is at most FP_GAP_TOL, "ftol" when an accepted step improved the value
    by no more than rounding, "no_step" when no step kept the value from
    rising."""
    problem, start = _FixedPoint.build(rho, alpha, layout, opt_positions, weight)
    stop, it, prev = "no_step", 0, math.inf
    for point in _fixed_point_iterates(problem, start):
        gap = point.gap()
        if gap <= FP_GAP_TOL:
            stop = "gradient"
        elif prev - point.value <= point.rounding:
            stop = "ftol"
        elif it == MAX_ITER:
            stop = "max_iter"
        else:
            it, prev = it + 1, point.value
            continue
        break
    if stop == "max_iter" and gap > RESIDUAL_TOL:
        raise OptimizerDiverged(f"no convergence after {it} iterations (gap {gap:.2e} bits)")
    basis = problem.basis @ point.vecs
    sigma = (basis * np.exp(point.logl)) @ dagger(basis)
    return OptimizerResult(DensityOperator(sigma, SystemLayout(sigma.shape[:1])), point.value, it,
                           gap, stop)


def _optimize_weight(rho: np.ndarray, alpha: float, layout: SystemLayout, opt_positions,
                     weight=None) -> OptimizerResult:
    """Minimise D_alpha(rho || tau (x) sigma) over the density matrices sigma on
    the contiguous block `opt_positions`; `weight` is the `psd_eigh` triple of
    tau on the other subsystems, None for the identity.

    Inside the order-one window the optimum is the marginal rho_P.  alpha = inf
    runs mirror descent at INF_ORDER; every other order the fixed point.
    """
    opt_positions = sorted(opt_positions)
    if not (math.isinf(alpha) or abs(alpha - 1.0) <= ALPHA_ONE_WINDOW):
        return _solve_fixed_point(rho, alpha, layout, opt_positions, weight)
    fixed = None if weight is None else spectral_power(*weight, 1.0)
    objective = _divergence_objective(rho, INF_ORDER if math.isinf(alpha) else alpha, layout,
                                      opt_positions, fixed)
    marginal = partial_trace(rho, layout, opt_positions)
    if math.isinf(alpha):
        return optimize_density(objective, len(marginal), init=marginal)
    return OptimizerResult(DensityOperator(marginal, SystemLayout(marginal.shape[:1])),
                           _value_at(objective, marginal), 0, 0.0, STOPS[0])


def cond_entropy_up(rho, alpha: float, dims=None) -> OptimizerResult:
    """H^up_alpha(A|rest): conditional entropy optimised over the conditioner.

    The first subsystem is the target; the optimisation runs over density
    matrices on everything else.  `value` is the optimised entropy and
    `optimum` the achieving conditioner state.
    """
    if not (alpha >= 0.5):
        raise InvalidOrder(f"order {alpha} below 1/2")
    layout = _layout_of(rho, dims)
    rho = _mat(rho)
    rest = list(range(1, len(layout.dims)))
    res = _optimize_weight(rho, alpha, layout, rest)
    return replace(res, value=-res.value)


def gen_mutual_info(rho, tau, alpha: float, dims=None, fixed: int = 0) -> OptimizerResult:
    """I_alpha(rho || tau) = inf over sigma of D_alpha(rho || tau (x) sigma).

    `fixed` names the bipartite subsystem carrying the weight tau; the
    optimisation runs over the other one.  The value is +inf, with no solve
    (0 iterations, residual 0), when rho misses supp tau (x) id, and from
    alpha = 1 - 1e-6 up when supp tau (x) id does not dominate rho.
    """
    layout = _layout_of(rho, dims)
    if len(layout.dims) != 2:
        raise ValueError("generalised mutual information is bipartite")
    rho, tau = _mat(rho), _mat(tau)
    weight = psd_eigh(tau)
    overlapping, dominated = _support_flags(partial_trace(rho, layout, [fixed]),
                                            spectral_power(*weight, 0.0))
    if not overlapping or alpha >= 1.0 - ALPHA_ONE_WINDOW and not dominated:
        other = partial_trace(rho, layout, [1 - fixed])
        return OptimizerResult(DensityOperator(other, SystemLayout(other.shape[:1])), math.inf, 0,
                               0.0, STOPS[0])
    return _optimize_weight(rho, alpha, layout, [1 - fixed], weight)


def mutual_info_up(rho, alpha: float, dims=None) -> OptimizerResult:
    layout = _layout_of(rho, dims)
    rho_a = partial_trace(_mat(rho), layout, [0])
    return gen_mutual_info(rho, rho_a, alpha, layout, fixed=0)


def mutual_info_down(rho, alpha: float, dims=None) -> OptimizerResult:
    """Alternating minimisation over both marginal weights, at most
    MI_DOWN_ROUNDS rounds, until a round improves less than MI_DOWN_TOL.
    `stop` is the worst stop of its solves."""
    layout = _layout_of(rho, dims)
    rho = _mat(rho)
    sig_a = partial_trace(rho, layout, [0])
    value = math.inf
    iterations = 0
    stop = STOPS[0]
    for _ in range(MI_DOWN_ROUNDS):
        res_b = gen_mutual_info(rho, sig_a, alpha, layout, fixed=0)
        sig_b = res_b.optimum.mat
        res_a = gen_mutual_info(rho, sig_b, alpha, layout, fixed=1)
        sig_a = res_a.optimum.mat
        iterations += res_a.iterations + res_b.iterations
        stop = max(stop, res_a.stop, res_b.stop, key=STOPS.index)
        residual = value - res_a.value
        value = min(value, res_a.value, res_b.value)
        if residual < MI_DOWN_TOL:
            break
    return OptimizerResult(DensityOperator(np.kron(sig_a, sig_b), layout), value, iterations,
                           max(residual, 0.0), stop)
