"""Entropic quantities built on the sandwiched Renyi divergence.

All logarithms are base 2 (values in bits) and 0*log(0) = 0.  A state is read
through its factor G, rho = G G^dagger: a `DensityOperator` carries the one it
was built from, and a raw array gets V sqrt(lambda) from the check it pays
where it enters (a state is checked once; negative eigenvalues inside the
clamp band count as 0 and lower ones raise `NotPositiveSemidefinite`).  Every
closed-form divergence D_alpha(rho || sigma) = (1/(alpha-1)) log2 tr
(sigma^c rho sigma^c)^alpha takes its sandwich spectrum from that factor, as
the squared singular values of diag(w^c) V^dagger G (`linalg.sandwich_spectrum`):
D_alpha = (2 alpha/(alpha-1)) log2 |sigma^c G|_(2 alpha) (Mueller-Lennert et
al., arXiv:1306.3142).  One support rule holds.  Whatever is decomposed (a
weight, the optimiser's stacks) loses its eigenvalues below the support cutoff
of `linalg`'s PSD spectral kernel, for every exponent and from every logarithm
(pseudoinverse convention); rho keeps every column of its factor, which only
the weight's support cuts.  A weight such as id (x) tau or sigma_A (x) tau_B is
decomposed only through its factors.  One formula, `_renyi_log_trace`, gives
(1/(alpha-1)) log2 tr X^alpha for divergences, entropies and the optimisers'
values; `_tr_log2` gives their alpha -> 1 limits.  The solves read rho by G
alone: a matrix they need (a marginal, the alpha = inf programme's) is a Gram.

Optimised quantities (conditional entropy with optimisation, mutual
informations) minimise D_alpha(rho || tau (x) sigma) in `_optimize_weight`,
over one weight factor sigma or, for I-down, over both factors of
sigma_A (x) sigma_B together.  At every finite order it runs the damped
stationarity fixed point sigma ~ M_sigma**(alpha/(2 alpha - 1)); at alpha =
inf it solves the min-entropy semidefinite programme min{tr Y : tau (x) Y >=
rho} by a primal-dual interior-point method, which I-down alternates over
its two factors; inside the order-one window the optimum is the marginal,
with no iteration.  Either way the value reported is the divergence at the
state returned, and the residual is a bound, in bits, on its distance from
the optimum: a Frank-Wolfe bound for the fixed point (for I-down per factor,
the other held fixed), the width of a primal-dual certificate for the programme.

A measured I(X:B), X being A measured in a basis, is solved through its
classical register (`measured_mutual_info`): the weight on X has a closed
form, so I_alpha(X:B) against a fixed weight needs no iteration and
I-down(X:B) is the fixed point over sigma_B alone, the factors G_x its stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    EIG_CUTOFF,
    InvalidOrder,
    SystemLayout,
    as_layout,
    check_hermitian,
    dagger,
    frac_power,
    kron_eigh,
    narrow_factor,
    partial_trace_factor,
    psd_eigh,
    psd_eigh_blocks,
    psd_eigvalsh,
    sandwich_spectrum,
    schatten_norm,
    support_factor,
    _hermitian,
)
from .states import DensityOperator, Pmf, measure, _sector_factors

SUPPORT_TOL = 1e-9
ALPHA_ONE_WINDOW = 1e-6


class OptimizerDiverged(RuntimeError):
    pass


def _mat(x) -> np.ndarray:
    """The matrix of a state or weight given as a DensityOperator or an array."""
    if isinstance(x, DensityOperator):
        return x.mat
    return check_hermitian(x)


def _state(rho) -> np.ndarray:
    """The factor G of a state, rho = G G^dagger: a DensityOperator's own, or
    for a raw array checked PSD where it enters, V sqrt(lambda) on its
    support from that check's `psd_eigh`."""
    if isinstance(rho, DensityOperator):
        return rho.factor
    return support_factor(*psd_eigh(check_hermitian(rho)))


def _marginal(g: np.ndarray, layout: SystemLayout, keep) -> np.ndarray:
    """The marginal on `keep` of rho = G G^dagger, the Gram of `partial_trace_factor`."""
    h = partial_trace_factor(g, layout, keep)
    return h @ dagger(h)


def _weight(sigma):
    """The `psd_eigh` triple of a weight given as a DensityOperator or an array."""
    return psd_eigh(_hermitian(sigma.mat if isinstance(sigma, DensityOperator) else sigma))


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

def _misses_weight(g: np.ndarray, weight, alpha: float) -> bool:
    """Whether D_alpha(rho || tau) is +inf by supports alone, rho = G G^dagger
    and tau given by its `psd_eigh` triple: rho misses supp tau, or leaves it
    from alpha = 1 - 1e-6 up.  tr P rho P = |P G|_F^2 for the projector P onto
    supp tau; a full-support tau keeps all of rho, with no projection."""
    total = float(np.vdot(g, g).real)
    if weight[2].all():
        inside = total
    else:
        inside = float(np.linalg.norm(dagger(weight[1][:, weight[2]]) @ g) ** 2)
    tol = SUPPORT_TOL * max(total, 1.0)
    return inside <= tol or alpha >= 1.0 - ALPHA_ONE_WINDOW and total - inside > tol


def _renyi_log_trace(lam: np.ndarray, live: np.ndarray, alpha: float) -> np.ndarray:
    """(1/(alpha-1)) log2 tr X**alpha from the ascending spectra of a stack,
    summed over each support; log2 lambda_max for alpha = inf."""
    top = np.maximum(lam[..., -1], 1e-300)
    if math.isinf(alpha):
        return np.log2(top)
    ratio = np.where(live, lam / top[..., None], 1.0)
    logq = alpha * np.log2(top) + np.log2(np.sum(np.where(live, ratio ** alpha, 0.0), axis=-1))
    return logq / (alpha - 1.0)


def _xlog2x(lam: np.ndarray, live: np.ndarray) -> np.ndarray:
    """sum lambda log2 lambda over each support, from the spectra of a stack."""
    return np.sum(np.where(live, lam * np.log2(np.where(live, lam, 1.0)), 0.0), axis=-1)


def _tr_log2(rho: np.ndarray, sigma) -> np.ndarray:
    """tr rho log2 sigma from the `psd_eigh` triple of sigma, a matrix or a
    stack, the log taken on each support."""
    w, v, live = sigma
    logs = (v * np.log2(np.where(live, w, 1.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return np.einsum("ij,...ji->...", rho, logs).real


def _sandwich_exponent(alpha: float) -> float:
    """c with D_alpha = (1/(alpha-1)) log2 tr (sigma^c rho sigma^c)**alpha."""
    return -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)


def _divergence_any_order(g: np.ndarray, weight, alpha: float) -> float:
    """Sandwiched divergence for alpha in (0, inf] of rho = G G^dagger, given by
    its factor G; no DPI-range gate, rho checked where it entered.  The
    weight's `psd_eigh` triple (a product's from `kron_eigh`) gives its
    support, its power c and its logarithm; the sandwich spectrum is
    `sandwich_spectrum`'s, and inside the order-one window rho's own spectrum
    is G's squared singular values."""
    if _misses_weight(g, weight, alpha):
        return math.inf
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        lam = np.linalg.svd(g, compute_uv=False) ** 2
        return float(_xlog2x(lam, lam > 0.0) - _tr_log2(g @ dagger(g), weight))
    lam = sandwich_spectrum(weight, _sandwich_exponent(alpha), g)
    return float(_renyi_log_trace(lam, lam > 0.0, alpha))


def sandwiched_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence D_alpha(rho || sigma) in bits.

    alpha must lie in [1/2, inf] (the data-processing range); alpha within
    1e-6 of 1 routes to the quantum relative entropy and alpha = inf to the
    max-divergence closed form.  The value is +inf for disjoint supports, and
    from alpha = 1 - 1e-6 up whenever sigma does not dominate rho.
    """
    if not (alpha >= 0.5):
        raise InvalidOrder(f"divergence order {alpha} below 1/2")
    return _divergence_any_order(_state(rho), _weight(sigma), alpha)


def renyi_entropy(rho, alpha: float) -> float:
    """H_alpha of a density operator; alpha in [0, inf]."""
    if alpha < 0.0:
        raise InvalidOrder("entropy order must be nonnegative")
    rho = _mat(rho)
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return -float(_tr_log2(rho, psd_eigh(rho)))
    return -float(_renyi_log_trace(*psd_eigvalsh(rho), alpha))


def weighted_norm(y, p: float, sigma, tau) -> float:
    """|| sigma^(1/2p) Y tau^(1/2p) ||_p for strictly positive weights."""
    y = np.asarray(y, dtype=complex)
    e = 0.0 if math.isinf(p) else 0.5 / p
    return schatten_norm(frac_power(_mat(sigma), e) @ y @ frac_power(_mat(tau), e), p)


# ---------------------------------------------------------------------------
# optimisation over a weight factor
# ---------------------------------------------------------------------------

# Solver constants.  The fixed point (finite orders) uses the FP_ ones and the
# min-entropy programme (alpha = inf) the SDP_ ones; both use MAX_ITER, past
# which a residual above RESIDUAL_TOL raises, and report residuals in bits.
MAX_ITER = 10_000
RESIDUAL_TOL = 1e-4
FLOOR = 1e-11         # the fixed point's spectral clip, a decade above the cutoff
FP_GAP_TOL = 1e-12    # bits: the fixed point stops once its optimality gap is below this
FP_FTOL = 1e-13       # ... or once a step changes it by no more than rounding (relative)
FP_ETA_CAP = 16.0
FP_ETA_MIN = 2.0 ** -30
SDP_GAP_TOL = 1e-12   # bits: the programme stops once its certified interval is this narrow
SDP_STEP = 0.95       # share of the step to the boundary of the PSD cone
SDP_CERTIFY = 1e-6    # relative duality gap below which each iterate is certified
MI_DOWN_ROUNDS = 40   # alternating rounds of mutual_info_down at alpha = inf
MI_DOWN_TOL = 1e-9
# why a solve stopped, best to worst: the optimality test held (the residual is
# at most FP_GAP_TOL or SDP_GAP_TOL), the value or the certified interval
# stopped improving beyond rounding, no step kept the value from rising, or
# MAX_ITER ran out
STOPS = ("gradient", "ftol", "no_step", "max_iter")


@dataclass
class OptimizerResult:
    factors: list     # the optimum's Kronecker factors, matrices; `optimum` builds it when first read
    value: float
    iterations: int
    # a bound, in bits, on the distance of `value` from the optimum: the fixed
    # point's Frank-Wolfe bound, the programme's certified width; for I-down the
    # larger per-block bound (not global), at alpha = inf the last round's gain
    # (inf when the rounds ran out)
    residual: float
    stop: str         # one of STOPS

    @functools.cached_property
    def optimum(self) -> DensityOperator:
        """The product state; its factor is the product of each matrix's
        `support_factor`."""
        return DensityOperator._built(
            functools.reduce(np.kron, self.factors), SystemLayout(tuple(len(x) for x in self.factors)),
            functools.reduce(np.kron, [support_factor(*psd_eigh(x)) for x in self.factors]))


# ---------------------------------------------------------------------------
# conditional entropies and mutual informations
# ---------------------------------------------------------------------------

def gen_cond_entropy(rho, tau, alpha: float, dims, weight_pos: int = 1) -> float:
    """H_alpha(rho_AB || tau) = -D_alpha(rho_AB || id (x) tau) with tau at weight_pos."""
    front, _, back = _block_sizes(as_layout(dims), [weight_pos])
    return -_divergence_any_order(_state(rho), kron_eigh([front, _weight(tau), back]), alpha)


def cond_entropy_down(rho, alpha: float, dims=None) -> float:
    """Conditional entropy against the actual marginal (no optimisation)."""
    layout = _layout_of(rho, dims)
    g = _state(rho)
    tau = _marginal(g, layout, range(1, len(layout.dims)))
    return -_divergence_any_order(g, kron_eigh([layout.dims[0], _weight(tau)]), alpha)


def _layout_of(rho, dims) -> SystemLayout:
    if dims is not None:
        return as_layout(dims)
    if isinstance(rho, DensityOperator):
        return rho.layout
    raise ValueError("subsystem dimensions required")


def _bipartite(rho, dims) -> SystemLayout:
    layout = _layout_of(rho, dims)
    if len(layout.dims) != 2:
        raise ValueError("mutual information is bipartite")
    return layout


def _block_sizes(layout: SystemLayout, positions) -> tuple[int, int, int]:
    """(front, block, back): the dimensions before, of and after the contiguous
    block `positions`."""
    lo, hi = positions[0], positions[-1]
    dims = layout.dims
    return math.prod(dims[:lo]), math.prod(dims[lo:hi + 1]), math.prod(dims[hi + 1:])


def _weight_times(layout: SystemLayout, positions, weight, sigmas):
    """The `psd_eigh` triple of tau (x) sigma_1 (x) ... in layout order from its
    factors: the sigma_k on the block `positions`, tau (the triple `weight`) on
    the subsystems before or after it."""
    factors = [_weight(s) for s in sigmas]
    return kron_eigh([weight, *factors] if _block_sizes(layout, positions)[2] == 1 else [*factors, weight])


def _sector_values(lam: np.ndarray, live: np.ndarray, alpha: float):
    """From the spectra (k, d) of sector blocks Y_x, cut as one matrix: the
    extremum over weights q of (1/(alpha-1)) log2 sum_x q_x**(1-alpha) tr
    Y_x**alpha, which is (alpha/(alpha-1)) log2 sum_x (tr Y_x**alpha)**(1/alpha)
    at q_x ~ (tr Y_x**alpha)**(1/alpha); each eigenvalue over the largest and
    over its q_x; and q, 0 on an empty sector.  One sector is q = (1)."""
    top = max(lam[:, -1].max(), 1e-300)
    ratio = np.where(live, lam / top, 1.0)
    tr = np.where(live, ratio ** alpha, 0.0).sum(axis=-1)   # tr Y_x**alpha / top**alpha
    if len(tr) == 1:
        return (alpha * np.log2(top) + np.log2(tr[0])) / (alpha - 1.0), ratio, np.ones(1)
    peak = tr.max()
    q = (tr / peak) ** (1.0 / alpha)
    value = (alpha * np.log2(top) + np.log2(peak) + alpha * np.log2(q.sum())) / (alpha - 1.0)
    # q_x**(1-alpha) Y_x**(alpha-1) = (Y_x / q_x)**(alpha-1), up to one factor
    return value, ratio / np.where(q > 0.0, q, 1.0)[:, None], q / q.sum()


@dataclass
class _FixedPoint:
    """(sigma_1, ...) |-> D_alpha(rho || tau (x) sigma_1 (x) ...) at a finite
    order, each block sigma_k restricted to supp rho_k (its marginal): one
    block against tau on the other subsystems, or both blocks of a bipartite
    rho against no weight.  Pinching a block onto supp rho_k and
    renormalising never raises the divergence, so every minimiser lives there.

    rho comes as the stack of its sectors' factors G_x, rho = sum_x |x><x| (x)
    G_x G_x^dagger on a classical register whose weight diag(q) takes its
    closed form at each iterate (`_sector_values`); a state without a
    register is one sector.  With Q = sum_x tr Y_x**alpha and Y_x = G_x^dagger
    (q_x tau (x) sigma_1 (x) ...)**s G_x, s = (1 - alpha)/alpha, r x r for G_x
    n x r and with the nonzero spectrum of the n x n sandwich, one stacked
    eigendecomposition gives the value (1/(alpha - 1)) log2 Q and, with Z_x =
    G_x Y_x**(alpha-1) G_x^dagger, each M_k = sum_x q_x**s
    tr_(not k)[(tau**s (x) sigma_j**s, j != k) Z_x], the factor of dQ =
    alpha tr[M_k d(sigma_k**s)].  The weight's spectrum is the product of
    the factors', cut as `linalg` cuts every spectrum, so the value is
    `sandwiched_divergence` at the returned product.  Points are log sigma_k
    in the eigenbasis `bases[k]` of rho_k on its support.
    """

    alpha: float
    bases: list         # per block (d_k, r_k): the support eigenvectors of rho_k
    c: np.ndarray       # G_x^dagger (tau's eigenbasis (x) bases), indexed (sector, rank, rest, r_1, ...)
    tau: np.ndarray     # tau's spectrum on the rest, 0 off its support ([1] for two blocks)
    tau_s: np.ndarray   # the same to the power s

    @classmethod
    def build(cls, g: np.ndarray, alpha: float, layout: SystemLayout, blocks, weight):
        """The problem on a factor g or a (k, n, r) stack of sectors' factors, each
        narrowed to at most n columns (`narrow_factor`), and log sigma_k of the
        first iterate sigma_k = rho_k in `bases[k]`."""
        g = narrow_factor(g.reshape(-1, *g.shape[-2:]))
        eigs = [psd_eigh(_marginal(np.hstack(g), layout, p)) for p in blocks]   # rho = sum_x G_x G_x^dagger
        bases = [vecs[:, live] for _, vecs, live in eigs]
        front, d, back = _block_sizes(layout, blocks[-1])
        outer = weight[1] if len(blocks) == 1 else bases[0]   # block A where tau's eigenbasis goes
        c = np.einsum("ifpb,pj,fbk->ikj", dagger(g).reshape(-1, front, d, back), bases[-1],
                      outer.reshape(front, back, -1))
        c = c.reshape(len(g), g.shape[2], len(weight[0]), *(basis.shape[1] for basis in bases))
        tau, live_tau = np.where(weight[2], weight[0], 1.0), weight[2]
        problem = cls(alpha, bases, c, np.where(live_tau, tau, 0.0),
                      np.where(live_tau, tau ** ((1.0 - alpha) / alpha), 0.0))
        return problem, [np.diag(np.log(lam[live])).astype(complex) for lam, _, live in eigs]

    def at(self, log_sigmas) -> "_Point":
        """The iterate exp(log sigma_k) / tr per block, spectra clipped at FLOOR:
        in the log chart an eigenvector of a vanishing eigenvalue stops turning."""
        a = self.alpha
        s = (1.0 - a) / a
        cv, spec, eigs = self.c, self.tau, []
        for axis, log_sigma in enumerate(log_sigmas, start=3):
            w, v = np.linalg.eigh(log_sigma)
            w = w - w.max()
            logl = np.maximum(w - math.log(np.exp(w).sum()), math.log(FLOOR))
            logl -= math.log(np.exp(logl).sum())
            cv = (cv.swapaxes(axis, -1) @ v).swapaxes(axis, -1)   # sigma_k's eigenbasis
            spec = spec[..., None] * np.exp(logl)
            eigs.append((v, logl))
        keep = spec > EIG_CUTOFF * spec.max()
        k = (cv * np.where(keep, np.where(keep, spec, 1.0) ** (0.5 * s), 0.0)).reshape(*cv.shape[:2], -1)
        lam, vy, live = psd_eigh_blocks(k @ k.conj().swapaxes(1, 2))   # the Y_x
        value, ratio, _ = _sector_values(lam, live, a)
        g = (vy.conj().swapaxes(1, 2) @ cv.reshape(k.shape[:2] + (-1,))).reshape(cv.shape)
        factors = [np.where(live, ratio ** (a - 1.0), 0.0), self.tau_s] + [np.exp(s * x) for _, x in eigs]
        blocks = []
        for axis, (v, logl) in enumerate(eigs, start=2):
            # M_k in sigma_k's eigenbasis, scaled so that tr(sigma_k grad Q) / Q = 1 - alpha
            weights = functools.reduce(np.multiply.outer, factors[:axis] + factors[axis + 1:])
            gk = g.swapaxes(axis + 1, -1).reshape(-1, len(logl))
            m = dagger(gk * weights.reshape(-1, 1)) @ gk
            blocks.append((v, logl, m / (np.diag(m).real * factors[axis]).sum()))
        return _Point(blocks, float(value), a)


@dataclass
class _Point:
    """One iterate and its value in bits: per block (vecs, logl, m), sigma_k =
    vecs diag(exp(logl)) vecs^dagger in its support basis and the scaled M_k
    in sigma_k's eigenbasis."""

    blocks: list
    value: float
    alpha: float

    @functools.cached_property
    def log_sigma(self) -> list:
        return [(v * logl) @ dagger(v) for v, logl, _ in self.blocks]

    @property
    def rounding(self) -> float:
        """Changes of the value below this are rounding: log2 Q / (alpha - 1)
        carries an error of about FP_FTOL max(1, |log2 Q|) / |alpha - 1|."""
        return FP_FTOL * max(1.0, abs(self.value), 1.0 / abs(self.alpha - 1.0))

    def step(self) -> list:
        """log M_k - k log sigma_k per block, k = (2 alpha - 1)/alpha: a multiple
        of the identity exactly at a fixed point sigma_k = M_k**(1/k) / tr."""
        steps = []
        for (vecs, _, m), log_sigma in zip(self.blocks, self.log_sigma):
            w, u = np.linalg.eigh(m)
            u = vecs @ u
            log_m = (u * np.log(np.maximum(w, w[-1] * 1e-300))) @ dagger(u)
            steps.append(log_m - (2.0 - 1.0 / self.alpha) * log_sigma)
        return steps

    def gap(self) -> float:
        """The larger per-block Frank-Wolfe bound, in bits, on how far the value
        lies above the optimum over that block with the others held fixed.

        Q is convex in sigma_k for alpha > 1 and concave for 1/2 <= alpha < 1
        (Frank-Lieb, arXiv:1306.5358), so Q(sigma_k) - Q* <= tr(sigma_k grad Q)
        - lambda_min(grad Q) when minimised, and the mirror image when
        maximised.  grad Q comes from M_k through the Daleckii-Krein divided
        differences of x**s on sigma_k's spectrum.  The set of products is not
        convex, so with two blocks this certifies no global optimum.
        """
        a = self.alpha
        s = (1.0 - a) / a
        xs = []
        for _, logl, m in self.blocks:
            u = logl[:, None] - logl[None, :]
            safe = np.where(u == 0.0, 1.0, u)
            slope = np.where(u == 0.0, s, np.expm1(s * safe) / np.expm1(safe))
            grad = a * np.exp((s - 1.0) * logl)[None, :] * slope * m
            h = np.linalg.eigvalsh(grad)
            t = float((np.diag(grad).real * np.exp(logl)).sum())
            xs.append(t - h[0] if a > 1.0 else h[-1] - t)
        x = max(max(xs), 0.0)
        if a > 1.0:
            return math.inf if x >= 1.0 else -math.log1p(-x) / ((a - 1.0) * math.log(2.0))
        return math.log1p(x) / ((1.0 - a) * math.log(2.0))


def _fixed_point_iterates(problem: _FixedPoint, start):
    """The accepted iterates of the damped fixed point from log sigma_k =
    `start[k]`; the value never rises.

    Each step is log sigma_k + eta (log M_k - k log sigma_k), one eta for all
    blocks, halved until the value does not rise.  After a success the next
    eta is the secant estimate that zeroes the new direction (the blocks'
    traceless parts together) along the last one, within [eta/4, 2 eta] and
    capped at 1/k (the plain fixed point) or FP_ETA_CAP, which covers k = 0
    at alpha = 1/2.  A step whose value rises by no more than rounding yields
    the point again.  The sequence ends when no eta above FP_ETA_MIN keeps the
    value from rising.
    """
    point = problem.at(start)
    cap = min(1.0 / max(2.0 - 1.0 / problem.alpha, 1e-300), FP_ETA_CAP)
    eta, last = cap, None
    while True:
        yield point
        direction = point.step()
        tangent = [d - np.trace(d).real / len(d) * np.eye(len(d)) for d in direction]
        if last is not None:
            den = sum(np.vdot(d0, d0 - d1).real for d0, d1 in zip(last, tangent))
            guess = eta * sum(np.vdot(d0, d0).real for d0 in last) / den if den > 0.0 else 2.0 * eta
            eta = min(max(guess, eta / 4.0), 2.0 * eta, cap)
        base = point.log_sigma
        while True:
            trial = problem.at([x + eta * d for x, d in zip(base, direction)])
            if trial.value <= point.value:
                break
            if trial.value - point.value <= point.rounding:
                trial = point   # a rise within rounding: stay, which ends the solve
                break
            eta /= 2.0
            if eta < FP_ETA_MIN:
                return
        point, last = trial, tangent


def _solve_fixed_point(problem: _FixedPoint, start) -> OptimizerResult:
    """Minimise D_alpha(rho || tau (x) sigma_1 (x) ...) at a finite order by the
    damped stationarity fixed point, from `start`, which `_FixedPoint.build`
    sets to sigma_k = rho_k.  The optimum is the product of the sigma_k.
    `residual` is the larger per-block Frank-Wolfe bound; `stop` is "gradient"
    once it is at most FP_GAP_TOL, "ftol" when an accepted step improved the
    value by no more than rounding, "no_step" when no step kept the value from
    rising."""
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
    bases = [basis @ v for basis, (v, _, _) in zip(problem.bases, point.blocks)]
    sigmas = [(b * np.exp(logl)) @ dagger(b) for b, (_, logl, _) in zip(bases, point.blocks)]
    return OptimizerResult(sigmas, point.value, it, gap, stop)


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


def _min_entropy_sdp(c: np.ndarray, m: int, n: int):
    """min{tr Y : 1_m (x) Y >= c} over n x n Hermitian Y, for c >= 0 on R (x) P,
    with its dual max{tr cX : X >= 0, tr_R X = 1_n}.

    A primal-dual interior-point method: HKM direction, Mehrotra predictor-
    corrector, one step length for X and Y, SDP_STEP of the way to the nearer
    boundary of the cone (separate lengths leave the dual, and so the
    certificate, lagging at the end).  It starts from X = 1/m, which is dual
    feasible, and Y above lambda_max(c), and carries the residual 1_n - tr_R X
    in the Newton system.  Every iterate certifies the interval
    [log2 tr cX~, log2 tr Y] around log2 of the optimum: Y is feasible while
    S = 1 (x) Y - c is positive definite, and X~, X rescaled by congruence
    with (tr_R X)^(-1/2), is exactly dual feasible; the lower end is worked
    out once the duality gap tr SX is below SDP_CERTIFY tr Y.
    Returns (Y of the smallest upper bound, lo, hi, iterations, stop), with
    [lo, hi] the best certified interval.  `stop` is "gradient" once it is at
    most SDP_GAP_TOL wide, "ftol" when three iterations did not halve it (a
    healthy end-game shrinks it several times over in each) or an iterate
    lost positivity to rounding.
    """
    big = m * n
    basis = _herm_basis(n).reshape(n * n, n * n)  # row j: B_j flattened, the diagonal units first
    cbasis, basis_t = basis.conj(), basis.T.copy()
    b = np.zeros(n * n)
    b[:n] = 1.0                                   # tr of each basis matrix
    eye_m = np.eye(m)

    def lift(h):                                  # 1_m (x) h
        return (eye_m[:, None, :, None] * h[None, :, None, :]).reshape(big, big)

    def tr_r(g):
        return np.einsum("rpra->pa", g.reshape(m, n, m, n))

    def herm(g):
        return (g + dagger(g)) / 2.0

    def lower(x):
        """log2 tr cX~, X~ = X rescaled to tr_R X~ = 1; -inf unless tr_R X > 0."""
        w, v = np.linalg.eigh(tr_r(x))
        if not w[0] > 0.0:
            return -math.inf
        scale = lift((v / np.sqrt(w)) @ dagger(v))
        return math.log2(np.vdot(scale @ c @ scale, x).real)

    def newton_step(x, y, s, li, gap):
        """The predictor-corrector step from X, Y > 0; li holds the inverse
        Cholesky factors of X and S.  Returns (Delta X, Delta Y)."""
        li_h = li.conj().swapaxes(1, 2)
        z = li_h[1] @ li[1]                      # S^-1
        # the Schur matrix M_jk = tr(E_j X E_k S^-1), E_j = 1 (x) B_j, scaled to a
        # unit diagonal for an accurate solve
        t = (x.reshape(m, n, m, n).transpose(1, 3, 0, 2).reshape(n * n, m * m)
             @ z.reshape(m, n, m, n).transpose(2, 0, 1, 3).reshape(m * m, n * n))
        t = t.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)
        schur = (cbasis @ t @ basis_t).real
        diag = np.diagonal(schur)
        if not diag.min() > 0.0:
            raise np.linalg.LinAlgError("the Schur matrix lost positivity")
        d = 1.0 / np.sqrt(diag)
        schur *= d[:, None] * d
        d_basis = d[:, None] * basis

        def newton(rhs):                         # Delta Y with M dy = rhs
            return (np.linalg.solve(schur, rhs * d) @ d_basis).reshape(n, n)

        def steps(dx, ds):
            """Step lengths for X and S: SDP_STEP of the way to the cone's boundary."""
            e = np.linalg.eigvalsh(li @ np.stack([dx, ds]) @ li_h)[:, 0]
            return [1.0 if v >= 0.0 else min(1.0, -SDP_STEP / v) for v in e.tolist()]

        # predictor (mu = 0), then the corrector towards sigma mu on the central path
        dy = newton(-b)
        ds = lift(dy)
        dx = -x - herm(x @ ds @ z)
        ax, ay = steps(dx, ds)
        mu = gap / big
        mu_aff = np.vdot(s + ay * ds, x + ax * dx).real / big
        g = (mu_aff / mu) ** 3 * mu * z - dx @ ds @ z
        dy = newton((cbasis @ tr_r(g).reshape(-1)).real - b)
        ds = lift(dy)
        dx = herm(g) - x - herm(x @ ds @ z)
        step = min(steps(dx, ds))
        return step * dx, step * dy

    x = np.eye(big, dtype=complex) / m
    y = 2.0 * np.linalg.eigvalsh(c)[-1] * np.eye(n, dtype=complex)
    best_y, top, lo, widths, stop, it, x_pd = y, math.inf, -math.inf, [], "max_iter", 0, x
    while it < MAX_ITER:
        s = lift(y) - c
        try:
            li = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
        except np.linalg.LinAlgError:
            stop = "ftol"
            break
        gap = np.vdot(s, x).real                 # tr Y - tr cX while tr_R X = 1
        if not gap > 0.0:                        # also a nan iterate
            stop = "ftol"
            break
        x_pd = x                                 # X > 0, and Y is feasible: S > 0
        if np.trace(y).real < top:
            top, best_y = np.trace(y).real, y
        if gap <= SDP_CERTIFY * top:
            lo = max(lo, lower(x))
            widths.append(math.log2(top) - lo)
            if widths[-1] <= SDP_GAP_TOL:
                stop = "gradient"
                break
            if len(widths) > 3 and widths[-1] > widths[-4] / 2.0:
                stop = "ftol"
                break
        it += 1
        try:
            dx, dy = newton_step(x, y, s, li, gap)
        except np.linalg.LinAlgError:
            stop = "ftol"
            break
        x, y = x + dx, y + dy
    if not widths:                               # never certified: bound the last X > 0
        lo = lower(x_pd)
    if stop == "max_iter" and math.log2(top) - lo > RESIDUAL_TOL:
        raise OptimizerDiverged(f"no convergence after {it} iterations "
                                f"(width {math.log2(top) - lo:.2e} bits)")
    return best_y, lo, math.log2(top), it, stop


def _solve_min_entropy(g: np.ndarray, layout: SystemLayout, opt_positions, weight) -> OptimizerResult:
    """Minimise D_max(rho || tau (x) sigma) over sigma, rho = G G^dagger, by the
    programme of `_min_entropy_sdp`: min over sigma of D_max = log2 min{tr Y :
    tau (x) Y >= rho}.

    With rho' = (tau^(-1/2) (x) 1) rho (tau^(-1/2) (x) 1) on supp tau, the Gram
    of (tau^(-1/2) (x) 1) G, the constraint is 1 (x) Y >= rho', and it may be
    restricted to the supports of the marginals of rho': compressing a
    feasible Y onto supp rho'_P keeps it feasible and lowers tr Y, and 1 (x) Y
    >= rho' holds once it holds on supp rho'_R (x) supp rho'_P.  sigma = Y /
    tr Y, and `value` is `sandwiched_divergence` at sigma; `residual` is the
    certified width.
    """
    front, d, back = _block_sizes(layout, opt_positions)
    lam, v, live = weight
    u = (v[:, live] / np.sqrt(lam[live])).reshape(front, back, -1)   # tau^(-1/2) on supp tau
    h = np.einsum("fbk,fpbr->kpr", u.conj(), g.reshape(front, d, back, -1))
    k = len(h)
    r = h.reshape(k * d, -1) @ dagger(h.reshape(k * d, -1))  # rho' on supp tau, ordered (tau, block)
    _, u_r, live_r = psd_eigh(np.einsum("rpsp->rs", r.reshape(k, d, k, d)))
    _, u_p, live_p = psd_eigh(np.einsum("rpra->pa", r.reshape(k, d, k, d)))
    u_r, u_p = u_r[:, live_r], u_p[:, live_p]
    m, n = u_r.shape[1], u_p.shape[1]
    comp = (u_r[:, None, :, None] * u_p[None, :, None, :]).reshape(k * d, m * n)
    y, lo, hi, it, stop = _min_entropy_sdp(dagger(comp) @ r @ comp, m, n)
    sigma = u_p @ y @ dagger(u_p)
    sigma = (sigma + dagger(sigma)) / (2.0 * np.trace(y).real)
    value = _divergence_any_order(g, _weight_times(layout, opt_positions, weight, [sigma]), math.inf)
    return OptimizerResult([sigma], value, it, hi - lo, stop)


def _optimize_weight(g: np.ndarray, alpha: float, layout: SystemLayout, blocks, weight) -> OptimizerResult:
    """Minimise D_alpha(rho || tau (x) sigma_1 (x) ...), rho = G G^dagger, over density matrices
    sigma_k on the contiguous `blocks` (lists of positions): one block, with
    `weight` the `psd_eigh` triple of tau on the other subsystems (`kron_eigh`
    of their dimensions for the identity), or the blocks ([0], [1]) of a
    bipartite rho with the empty identity `kron_eigh([])`.
    At a finite order G may also be the (k, n, r) stack of the sectors'
    factors of a cq state, whose register weight takes its closed form
    (`_FixedPoint`).

    Inside the order-one window the optimum is the product of the marginals;
    alpha = inf solves the min-entropy programme (one block only); every
    other order runs the fixed point over all blocks at once.
    """
    blocks = [sorted(p) for p in blocks]
    if math.isinf(alpha):
        return _solve_min_entropy(g, layout, *blocks, weight)
    if abs(alpha - 1.0) > ALPHA_ONE_WINDOW:
        return _solve_fixed_point(*_FixedPoint.build(g, alpha, layout, blocks, weight))
    marginals = [_marginal(g, layout, p) for p in blocks]
    value = _divergence_any_order(g, _weight_times(layout, sum(blocks, []), weight, marginals), alpha)
    return OptimizerResult(marginals, value, 0, 0.0, STOPS[0])


def cond_entropy_up(rho, alpha: float, dims=None) -> OptimizerResult:
    """H^up_alpha(A|rest): conditional entropy optimised over the conditioner.

    The first subsystem is the target; the optimisation runs over density
    matrices on everything else.  `value` is the optimised entropy and
    `optimum` the achieving conditioner state.
    """
    if not (alpha >= 0.5):
        raise InvalidOrder(f"order {alpha} below 1/2")
    layout = _layout_of(rho, dims)
    rest = list(range(1, len(layout.dims)))
    res = _optimize_weight(_state(rho), alpha, layout, [rest], kron_eigh([layout.dims[0]]))
    return replace(res, value=-res.value)


def gen_mutual_info(rho, tau, alpha: float, dims=None, fixed: int = 0) -> OptimizerResult:
    """I_alpha(rho || tau) = inf over sigma of D_alpha(rho || tau (x) sigma).

    `fixed` names the bipartite subsystem carrying the weight tau; the
    optimisation runs over the other one.  The value is +inf, with no solve
    (0 iterations, residual 0), when rho misses supp tau (x) id, and from
    alpha = 1 - 1e-6 up when supp tau (x) id does not dominate rho.
    """
    return _mutual_info_against(_state(rho), _weight(tau), alpha, _bipartite(rho, dims), fixed)


def _mutual_info_against(g: np.ndarray, weight, alpha: float, layout: SystemLayout, fixed: int) -> OptimizerResult:
    """`gen_mutual_info` of a checked bipartite rho = G G^dagger against tau's
    `psd_eigh` triple."""
    if _misses_weight(partial_trace_factor(g, layout, [fixed]), weight, alpha):
        return OptimizerResult([_marginal(g, layout, [1 - fixed])], math.inf, 0, 0.0, STOPS[0])
    return _optimize_weight(g, alpha, layout, [[1 - fixed]], weight)


def mutual_info_up(rho, alpha: float, dims=None) -> OptimizerResult:
    layout = _bipartite(rho, dims)
    g = _state(rho)
    return _mutual_info_against(g, _weight(_marginal(g, layout, [0])), alpha, layout, fixed=0)


def mutual_info_down(rho, alpha: float, dims=None) -> OptimizerResult:
    """inf over sigma_A, sigma_B of D_alpha(rho || sigma_A (x) sigma_B).

    At a finite order one fixed point updates both factors; its `residual`
    bounds each block's distance from its optimum with the other held fixed
    (no global certificate: products are not a convex set).  At alpha = inf
    it alternates certified one-block solves until a round improves less than
    MI_DOWN_TOL, and `residual` is that last gain; if MI_DOWN_ROUNDS run out
    first, `stop` is "max_iter" and `residual` is inf: no bound.
    """
    layout = _bipartite(rho, dims)
    g = _state(rho)
    if not math.isinf(alpha):
        return _optimize_weight(g, alpha, layout, ([0], [1]), kron_eigh([]))
    sig_a = _marginal(g, layout, [0])
    value, iterations, stop = math.inf, 0, STOPS[0]
    for _ in range(MI_DOWN_ROUNDS):
        res_b = _mutual_info_against(g, _weight(sig_a), alpha, layout, fixed=0)
        res_a = _mutual_info_against(g, _weight(res_b.factors[0]), alpha, layout, fixed=1)
        sig_a, sig_b = res_a.factors[0], res_b.factors[0]
        iterations += res_a.iterations + res_b.iterations
        stop = max(stop, res_a.stop, res_b.stop, key=STOPS.index)
        residual = value - res_a.value
        value = min(value, res_a.value, res_b.value)
        if residual < MI_DOWN_TOL:
            break
    else:
        stop, residual = "max_iter", math.inf
    return OptimizerResult([sig_a, sig_b], value, iterations, max(residual, 0.0), stop)


def _register_weights(gx: np.ndarray, weight, alpha: float):
    """The optimal register weight q against tau (its `psd_eigh` triple),
    q_x ~ Q_x**(1/alpha) with Q_x = tr(tau**c rho~_x tau**c)**alpha, and the
    divergence at diag(q) (x) tau, whose support is cut as `linalg` cuts a
    weight's, on the products q_x tau_j: (alpha/(alpha-1)) log2 sum_x
    Q_x**(1/alpha) where the cut keeps supp tau in every sector, else each
    sector's sandwich again against its kept products.  Every sandwich
    spectrum is `sandwich_spectrum`'s, from the sectors' factors in the stack gx."""
    c = _sandwich_exponent(alpha)
    lam = sandwich_spectrum(weight, c, gx)
    value, _, q = _sector_values(lam, lam > 0.0, alpha)
    spec, u, live = weight
    prod = q[:, None] * np.where(live, spec, 0.0)
    keep = prod > EIG_CUTOFF * prod.max()
    if (keep == live).all():
        return float(value), q
    lam = np.sort(np.concatenate([sandwich_spectrum((w, u, k), c, g) for w, k, g in zip(prod, keep, gx)
                                  if k.any()]))
    return float(_renyi_log_trace(lam, lam > 0.0, alpha)), q


def _register_window(gx: np.ndarray, v: np.ndarray, tau) -> OptimizerResult:
    """I(X:B) inside the order-one window against tau on B or, when tau is None,
    I-down with sigma_B = rho~ = sum_x rho~_x: at sigma_X = diag(p), p_x = tr rho~_x,
    sum_x tr rho~_x log2 rho~_x - sum_x p_x log2 p_x - tr rho~ log2 sigma_B, each
    rho~_x = G_x G_x^dagger from the stack gx, their spectra cut as one matrix."""
    sectors = gx @ dagger(gx)
    marginal = sectors.sum(axis=0)
    lam, _, live = psd_eigh_blocks(sectors)
    p = np.einsum("xaa->x", sectors).real
    joint = _xlog2x(lam, live).sum()
    weight = psd_eigh(marginal) if tau is None else _weight(tau)
    value = joint + classical_renyi_entropy(p, 1.0) - _tr_log2(marginal, weight)
    factors = [(v * p) @ dagger(v)] + ([marginal] if tau is None else [])
    return OptimizerResult(factors, float(value), 0, 0.0, STOPS[0])


def measured_mutual_info(rho: DensityOperator, basis, alpha: float, tau=None) -> OptimizerResult:
    """I(X:B) of X, A of a bipartite rho measured in `basis` (the state
    `measure(rho, basis)`): I-down_alpha(X:B) when tau is None, else
    I_alpha(X:B) against tau on B, optimised over sigma_X.

    The measured state is sum_x |x><x| (x) rho~_x in the basis, with the sectors
    rho~_x = (<x| (x) 1) rho (|x> (x) 1), and a sigma_X = diag(q) there loses nothing.
    The optimal q_x ~ Q_x**(1/alpha), Q_x = tr(sigma_B**c rho~_x sigma_B**c)**alpha,
    gives I_alpha in closed form (0 iterations, residual 0) and makes I-down
    a fixed point over sigma_B alone, residual sigma_B's Frank-Wolfe bound (near
    alpha = 1: `_register_window`).  When rho_B misses supp tau the value is +inf
    as in `gen_mutual_info`, with sigma_X = diag(p), p_x = tr rho~_x; at alpha = inf
    `mutual_info_down` and `gen_mutual_info` answer on the measured state.
    """
    gx, v = _sector_factors(rho, basis), basis.vectors
    db = gx.shape[1]
    weight = None if tau is None else _weight(tau)
    if tau is not None and _misses_weight(partial_trace_factor(rho.factor, (len(v), db), [1]), weight, alpha):
        p = np.einsum("xbk,xbk->x", gx.conj(), gx).real
        return OptimizerResult([(v * p) @ dagger(v)], math.inf, 0, 0.0, STOPS[0])
    if math.isinf(alpha):
        measured = measure(rho, basis)
        return mutual_info_down(measured, alpha) if tau is None else gen_mutual_info(measured, tau, alpha, fixed=1)
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return _register_window(gx, v, tau)
    if tau is None:
        res = _optimize_weight(gx, alpha, SystemLayout((db,)), [[0]], kron_eigh([]))
        value, q = _register_weights(gx, _weight(res.factors[0]), alpha)
        return replace(res, value=value, factors=[(v * q) @ dagger(v), res.factors[0]])
    value, q = _register_weights(gx, weight, alpha)
    return OptimizerResult([(v * q) @ dagger(v)], value, 0, 0.0, STOPS[0])
