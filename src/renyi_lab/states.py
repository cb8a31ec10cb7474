"""States, bases, and seeded sampling.

All samplers take an explicit numpy Generator.  Trial-level RNGs derive from
(master_seed, trial_index) so trials are order-independent and reproducible
bit-for-bit.  A raw matrix becomes a state by its spectrum; a matrix built PSD,
such as a sampled Gram G G^dagger, a measured state, a partial trace or a
product of checked states, by its trace alone.  Measuring A, the first
subsystem, in a basis is read through its sectors rho~_x = (<x| (x) 1) rho
(|x> (x) 1): the measured state and the outcome distribution are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LayoutMismatch,
    SystemLayout,
    as_layout,
    dagger,
    partial_trace,
    psd_eigh,
    _hermitian,
)

TRACE_TOL = 1e-10
ONB_TOL = 1e-10


@dataclass(frozen=True)
class DensityOperator:
    """Trace-1 PSD matrix with an attached subsystem layout.  A raw matrix is
    checked by one `psd_eigh` and rebuilt from the clamped spectrum; a matrix
    PSD by construction is checked by its trace alone (`_built`)."""

    mat: np.ndarray
    layout: SystemLayout

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        self.layout.check(m.shape[0])
        vals, vecs, _ = psd_eigh(_hermitian(m))  # raises if meaningfully non-PSD
        _check_trace(vals.sum())
        object.__setattr__(self, "mat", (vecs * vals) @ dagger(vecs))

    @classmethod
    def _built(cls, mat: np.ndarray, layout: SystemLayout) -> "DensityOperator":
        """The state of a matrix PSD by construction: a Gram G G^dagger, or a
        measured state, a partial trace or a product of checked states.  Its
        Hermitian part is kept and only its trace is checked, which a
        non-finite factor fails; nothing is decomposed."""
        layout.check(mat.shape[0])
        mat = (mat + dagger(mat)) / 2.0
        _check_trace(np.trace(mat).real)
        state = object.__new__(cls)
        object.__setattr__(state, "mat", mat)
        object.__setattr__(state, "layout", layout)
        return state

    @property
    def dim(self) -> int:
        return self.layout.dim

    def marginal(self, keep) -> "DensityOperator":
        keep = sorted(set(keep))
        sub = partial_trace(self.mat, self.layout, keep)
        return DensityOperator._built(sub, SystemLayout(tuple(self.layout.dims[k] for k in keep)))


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
    return DensityOperator._built(g @ dagger(g), layout)


def random_onb(dim: int, rng: np.random.Generator) -> MeasurementBasis:
    """Haar unitary via QR of a complex Gaussian matrix with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return MeasurementBasis(q * (d / np.abs(d)))


def random_cq_state(dim: int, registers: int, rng: np.random.Generator) -> DensityOperator:
    """sum_y p(y) rho_y (x) |y><y| on A (x) Y, the register second, its blocks
    p(y) rho_y formed as one stacked product: p Dirichlet(1, ..., 1), then each
    rho_y the draw and build of `random_density(dim, dim, rng)`."""
    p = rng.dirichlet(np.ones(registers))
    g = np.stack([random_density_factor(dim, dim, rng) for _ in range(registers)])
    blocks = p[:, None, None] * (g @ dagger(g))
    mat = np.einsum("yab,yz->aybz", blocks, np.eye(registers)).reshape(dim * registers, -1)
    return DensityOperator._built(mat, SystemLayout((dim, registers)))


def _sectors(rho: DensityOperator, basis: MeasurementBasis) -> np.ndarray:
    """The (d_A, d_B, d_B) stack of rho~_x = (<x| (x) 1) rho (|x> (x) 1), A the
    first subsystem and B the rest (d_B = 1 for a one-system state)."""
    da = rho.layout.dims[0]
    if basis.dim != da:
        raise LayoutMismatch(f"basis dimension {basis.dim} != subsystem dimension {da}")
    db, v = rho.dim // da, basis.vectors
    return np.einsum("ix,iajb,jx->xab", v.conj(), rho.mat.reshape(da, db, da, db), v)


def measure(rho: DensityOperator, basis: MeasurementBasis) -> DensityOperator:
    """A measured in the given basis (projective measurement channel):
    sum_x |x><x| (x) rho~_x, built back from the sectors."""
    v = basis.vectors
    mat = np.einsum("ix,xab,jx->iajb", v, _sectors(rho, basis), v.conj())
    return DensityOperator._built(mat.reshape(rho.dim, rho.dim), rho.layout)


def measurement_pmf(rho: DensityOperator, basis: MeasurementBasis) -> Pmf:
    """Outcome distribution of measuring A in the given basis: p_x = tr rho~_x."""
    p = np.clip(np.einsum("xaa->x", _sectors(rho, basis)).real, 0.0, None)
    return Pmf(p / p.sum())
