"""States, bases, and seeded sampling.

All samplers take an explicit numpy Generator.  Trial-level RNGs derive from
(master_seed, trial_index) so trials are order-independent and reproducible
bit-for-bit.  Every state carries a factor G, rho = G G^dagger (n x r), which
its builder already holds: a sampled state its draw, a cq state its stacked
blocks, a marginal G with the traced systems moved into its columns, a measured
state its sectors' factors.  A raw matrix becomes a state by its spectrum, which
also gives its factor V sqrt(lambda) on its support; a matrix built PSD
by construction, by its trace alone.  So the support of a state is its factor's
columns, and nothing built is decomposed to find it.  Measuring A, the first
subsystem, in a basis reads its sectors rho~_x = (<x| (x) 1) rho (|x> (x) 1)
through their factors G_x = (<x| (x) 1) G alone: p_x = |G_x|_F^2, and the
measured state is built from the G_x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    LayoutMismatch,
    SystemLayout,
    as_layout,
    dagger,
    narrow_factor,
    partial_trace,
    partial_trace_factor,
    psd_eigh,
    support_factor,
    _hermitian,
)

TRACE_TOL = 1e-10
ONB_TOL = 1e-10


@dataclass(frozen=True)
class DensityOperator:
    """Trace-1 PSD matrix with an attached subsystem layout and a factor G,
    mat = G G^dagger with G n x r.  A raw matrix is checked by one `psd_eigh`,
    rebuilt from the clamped spectrum and factored as V sqrt(lambda) on its
    support; a matrix PSD by construction is checked by its trace alone and
    keeps the factor it was built from (`_built`)."""

    mat: np.ndarray
    layout: SystemLayout
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        self.layout.check(m.shape[0])
        vals, vecs, live = psd_eigh(_hermitian(m))  # raises if meaningfully non-PSD
        _check_trace(vals.sum())
        object.__setattr__(self, "mat", (vecs * vals) @ dagger(vecs))
        object.__setattr__(self, "factor", support_factor(vals, vecs, live))

    @classmethod
    def _built(cls, mat: np.ndarray, layout: SystemLayout, factor: np.ndarray) -> "DensityOperator":
        """The state of a matrix PSD by construction, mat = factor factor^dagger:
        a Gram G G^dagger, or a measured state, a partial trace or a product of
        checked states.  Its Hermitian part is kept and only its trace is
        checked, which a non-finite factor fails; nothing is decomposed."""
        layout.check(mat.shape[0])
        mat = (mat + dagger(mat)) / 2.0
        _check_trace(np.trace(mat).real)
        state = object.__new__(cls)
        object.__setattr__(state, "mat", mat)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "factor", factor)
        return state

    @property
    def dim(self) -> int:
        return self.layout.dim

    def marginal(self, keep) -> "DensityOperator":
        """The partial trace onto `keep`; its factor is G with the traced
        systems moved into the columns."""
        keep = sorted(set(keep))
        sub = partial_trace(self.mat, self.layout, keep)
        return DensityOperator._built(sub, SystemLayout(tuple(self.layout.dims[k] for k in keep)),
                                      partial_trace_factor(self.factor, self.layout, keep))


def _check_trace(tr: float) -> None:
    if not (abs(tr - 1.0) <= TRACE_TOL):   # NaN fails
        raise ValueError(f"trace {tr} differs from 1 beyond tolerance")


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis; columns of `vectors` are the basis kets."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        d = v.shape[0]
        if v.shape != (d, d):
            raise LayoutMismatch("basis matrix must be square")
        gram = dagger(v) @ v
        if not (np.abs(gram - np.eye(d)).max() <= ONB_TOL):   # NaN fails
            raise ValueError("basis columns are not orthonormal within tolerance")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class Pmf:
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if not np.all(p >= -1e-12):   # NaN fails
            raise ValueError("negative or non-finite probability")
        if not (abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, None))


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-style seeding: independent stream per (master seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial)]))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rank: int, rng: np.random.Generator, dims=None) -> DensityOperator:
    """Marginal of a Haar pure state on dim (x) rank; full rank when rank >= dim."""
    return density_from_factor(random_density_factor(dim, rank, rng), dims)


def random_density_factor(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """The draw of `random_density`: the pure state as the dim x rank matrix G."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return random_pure(dim * rank, rng).reshape(dim, rank)


def density_from_factor(g: np.ndarray, dims=None) -> DensityOperator:
    """The build of `random_density`: rho = G G^dagger, the partial trace over the
    rank factor (the induced measure of Zyczkowski and Sommers), formed as one
    product and checked by its trace."""
    dim = g.shape[0]
    layout = as_layout(dims) if dims is not None else SystemLayout((dim,))
    return DensityOperator._built(g @ dagger(g), layout, g)


def random_onb(dim: int, rng: np.random.Generator) -> MeasurementBasis:
    """Haar unitary via QR of a complex Gaussian matrix with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return MeasurementBasis(q * (d / np.abs(d)))


def random_cq_state(dim: int, registers: int, rng: np.random.Generator) -> DensityOperator:
    """sum_y p(y) rho_y (x) |y><y| on A (x) Y, the register second: p
    Dirichlet(1, ..., 1), then each rho_y the draw and build of
    `random_density(dim, dim, rng)`.  The blocks p(y) rho_y are one stacked
    product, placed by index; the factor holds sqrt(p(y)) G_y on the rows of
    register y and columns of its own."""
    p = rng.dirichlet(np.ones(registers))
    g = np.stack([random_density_factor(dim, dim, rng) for _ in range(registers)])
    y, n = np.arange(registers), dim * registers
    mat = np.zeros((dim, registers, dim, registers), dtype=complex)
    mat[:, y, :, y] = p[:, None, None] * (g @ dagger(g))
    factor = np.zeros((dim, registers, registers, dim), dtype=complex)
    factor[:, y, y, :] = (np.sqrt(p)[:, None, None] * g).transpose(1, 0, 2)
    return DensityOperator._built(mat.reshape(n, n), SystemLayout((dim, registers)), factor.reshape(n, n))


def _sector_factors(rho: DensityOperator, basis: MeasurementBasis) -> np.ndarray:
    """The (d_A, d_B, r) stack of the sectors' factors G_x = (<x| (x) 1) G, A
    the first subsystem and B the rest (d_B = 1 for a one-system state), as
    one product."""
    da = rho.layout.dims[0]
    if basis.dim != da:
        raise LayoutMismatch(f"basis dimension {basis.dim} != subsystem dimension {da}")
    return (dagger(basis.vectors) @ rho.factor.reshape(da, -1)).reshape(da, rho.dim // da, -1)


def measure(rho: DensityOperator, basis: MeasurementBasis) -> DensityOperator:
    """A measured in the given basis (projective measurement channel):
    sum_x |x><x| (x) rho~_x.  Its factor holds each sector's factor, narrowed
    to at most d_B columns (`narrow_factor`), on the rows of |x> and columns of
    its own; its matrix is that factor's Gram."""
    v, gx = basis.vectors, narrow_factor(_sector_factors(rho, basis))
    factor = (v[:, None, :, None] * gx.transpose(1, 0, 2)[None]).reshape(rho.dim, -1)   # (i, b, x, k)
    return DensityOperator._built(factor @ dagger(factor), rho.layout, factor)


def measurement_pmf(rho: DensityOperator, basis: MeasurementBasis) -> Pmf:
    """Outcome distribution of measuring A in the given basis: p_x = |G_x|_F^2."""
    p = (np.abs(_sector_factors(rho, basis)) ** 2).sum(axis=(1, 2))
    return Pmf(p / p.sum())
