"""Dense complex linear-operator kernel.

The PSD spectral kernel (one clamp and support-cutoff policy for a matrix, a
(..., d, d) stack or a Kronecker product from its factors, and the matrix powers
built on it), Schatten (quasi-)norms, embedding and partial traces over
subsystem layouts, and purification; plain numpy on small matrices (dims <= 64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Eigenvalues below EIG_CUTOFF * lambda_max are treated as exact zeros
# (pseudoinverse convention, applied for every exponent).
EIG_CUTOFF = 1e-12
# Eigenvalues in [-PSD_CLAMP * scale, 0) are clamped to 0; more negative is an error.
PSD_CLAMP = 1e-10
HERM_TOL = 1e-9


class NotHermitian(ValueError):
    pass


class NotPositiveSemidefinite(ValueError):
    pass


class InvalidOrder(ValueError):
    pass


class LayoutMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SystemLayout:
    """Ordered subsystem dimensions of a composite space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(int(d) < 1 for d in self.dims):
            raise LayoutMismatch(f"invalid subsystem dimensions {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def check(self, n: int) -> None:
        if self.dim != n:
            raise LayoutMismatch(f"layout {self.dims} has dimension {self.dim}, operator has {n}")


def as_layout(dims) -> SystemLayout:
    if isinstance(dims, SystemLayout):
        return dims
    if isinstance(dims, int):
        return SystemLayout((dims,))
    return SystemLayout(tuple(dims))


def dagger(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """h as a complex array, or NotHermitian if it is not Hermitian within
    tolerance; a (k, d, d) stack is checked as its block-diagonal matrix."""
    h = np.asarray(h, dtype=complex)
    scale = 1.0 + np.abs(h).max(initial=0.0)
    if not (np.abs(h - dagger(h)).max(initial=0.0) <= HERM_TOL * scale):   # NaN fails
        raise NotHermitian("matrix is not finite and Hermitian within tolerance")
    return h


def _hermitian(h: np.ndarray) -> np.ndarray:
    h = check_hermitian(h)
    return (h + dagger(h)) / 2.0


# ---------------------------------------------------------------------------
# PSD spectral kernel: the one clamp and cutoff policy, per matrix of a stack
# ---------------------------------------------------------------------------

def _psd_policy(lam: np.ndarray, scale: np.ndarray):
    """Zero the clamp band [-PSD_CLAMP * max(1, scale), 0) of ascending
    (..., d) spectra, raise below it or on a NaN, and mark each matrix's support."""
    low = lam[..., 0]
    if not (low.min() >= 0.0):
        if not (low >= -PSD_CLAMP * np.maximum(scale, 1.0)).all():
            raise NotPositiveSemidefinite(f"eigenvalue {low.min():.3e} below clamp tolerance")
        lam = np.maximum(lam, 0.0)
    return lam, lam > EIG_CUTOFF * lam[..., -1:]


def psd_eigvalsh(h: np.ndarray):
    """(lam, live) for a PSD matrix or (..., d, d) stack: ascending eigenvalues
    with the clamp band zeroed, and each matrix's support mask."""
    lam = np.linalg.eigvalsh(h)
    return _psd_policy(lam, lam[..., -1])


def psd_eigh(h: np.ndarray):
    """(lam, v, live): `psd_eigvalsh` plus the eigenvectors as columns."""
    lam, v = np.linalg.eigh(h)
    lam, live = _psd_policy(lam, lam[..., -1])
    return lam, v, live


def psd_eigh_blocks(h: np.ndarray):
    """`psd_eigh` of the block-diagonal matrix whose blocks are the (k, d, d)
    stack h, block by block: one clamp band and one support cutoff, both set
    by the largest eigenvalue over all blocks, so a block of rounding noise
    has no support.  For k = 1 it is `psd_eigh` of the one block."""
    lam, v = np.linalg.eigh(h)
    top = lam[:, -1].max()
    lam, _ = _psd_policy(lam, top)
    return lam, v, lam > EIG_CUTOFF * top


def kron_eigh(factors):
    """`psd_eigh` of the Kronecker product of `factors`, `psd_eigh` triples or d for
    the d x d identity, from theirs alone: the eigenvalue products ascending, one
    cutoff set by the top one, and the eigenvector products in layout order."""
    lam, v = np.ones(1), np.ones((1, 1))
    for f in factors:
        f_lam, f_v = (np.ones(f), np.eye(f)) if isinstance(f, int) else f[:2]
        lam = np.multiply.outer(lam, f_lam).ravel()
        v = (v[:, None, :, None] * f_v[None, :, None, :]).reshape(len(lam), len(lam))
    order = np.argsort(lam, kind="stable")
    lam, v = lam[order], v[:, order]
    return lam, v, lam > EIG_CUTOFF * lam[-1]


def congruence_eigvalsh(w: np.ndarray, rho: np.ndarray):
    """`psd_eigvalsh` of w rho w^dagger for a matrix or stack w and a rho
    already checked PSD.

    The product is PSD by construction, so its clamp band is the product's
    rounding scale |w|_F^2 |rho|_F rather than its own lambda_max: a floored
    weight raised to a negative power leaves +-1e-6 eigenvalues on a rank-one
    product whose top eigenvalue is 2.
    """
    lam = np.linalg.eigvalsh(w @ rho @ w.conj().swapaxes(-1, -2))
    return _psd_policy(lam, np.sum(np.abs(w) ** 2, axis=(-2, -1)) * np.linalg.norm(rho))


def spectral_power(lam: np.ndarray, v: np.ndarray, live: np.ndarray, a: float) -> np.ndarray:
    """The matrix power a from a `psd_eigh` decomposition (lam, v, live);
    eigenvalues off `live` map to 0 for every a."""
    wp = np.where(live, np.where(live, lam, 1.0) ** a, 0.0)
    return (v * wp[..., None, :]) @ v.conj().swapaxes(-1, -2)


def frac_power(h: np.ndarray, a: float) -> np.ndarray:
    """h**a for a PSD matrix or (..., d, d) stack; eigenvalues below the
    cutoff map to 0 for every a (a = 0 gives the support projector)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim == 2:
        h = _hermitian(h)
    return spectral_power(*psd_eigh(h), a)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """(sum_i s_i(m)**p)**(1/p); largest singular value for p = inf.

    A quasi-norm for p < 1; InvalidOrder for p <= 0.
    """
    m = np.asarray(m, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if np.isinf(p):
        return float(s.max(initial=0.0))
    if not (p > 0.0):
        raise InvalidOrder(f"Schatten order must be positive or inf, got {p}")
    top = s.max(initial=0.0)
    if top == 0.0:
        return 0.0
    s = s[s > EIG_CUTOFF * top]
    # factor out the peak to keep s**p finite for large p
    return float(top * np.exp(np.log(np.sum((s / top) ** p)) / p))


def embed_block(dims, block: np.ndarray, positions) -> np.ndarray:
    """I (x) block (x) I for an operator or (k, d, d) stack on contiguous positions."""
    dims = as_layout(dims).dims
    lo, hi = min(positions), max(positions)
    if len(set(positions)) != hi - lo + 1:
        raise ValueError("embedded subsystems must be contiguous")
    d = math.prod(dims[lo:hi + 1])
    if block.shape[-2:] != (d, d):
        raise LayoutMismatch(f"block has shape {block.shape[-2:]}, expected {(d, d)}")
    front, back = math.prod(dims[:lo]), math.prod(dims[hi + 1:])
    if front == 1 and back == 1:
        return block
    out = np.einsum("ij,...ab,xy->...iaxjby",
                    np.eye(front, dtype=complex), block, np.eye(back, dtype=complex))
    n = front * d * back
    return out.reshape(block.shape[:-2] + (n, n))


def swap_bipartite(m: np.ndarray, dims) -> np.ndarray:
    """The operator on B (x) A matching m on A (x) B, dims = (dA, dB)."""
    da, db = dims
    return m.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not in `keep`; kept order follows the layout."""
    layout = as_layout(dims)
    m = np.asarray(m, dtype=complex)
    layout.check(m.shape[0])
    if m.shape[0] != m.shape[1]:
        raise LayoutMismatch("partial trace requires a square operator")
    keep = sorted(set(int(k) for k in keep))
    n = len(layout.dims)
    if any(k < 0 or k >= n for k in keep):
        raise LayoutMismatch(f"keep set {keep} out of range for {n} subsystems")
    t = m.reshape(layout.dims + layout.dims)
    row = list(range(n))
    col = list(range(n))
    out: list[int] = []
    nxt = n
    for k in keep:
        col[k] = nxt
        nxt += 1
    out = [row[k] for k in keep] + [col[k] for k in keep]
    reduced = np.einsum(t, row + col, out)
    dk = int(np.prod([layout.dims[k] for k in keep])) if keep else 1
    return reduced.reshape(dk, dk)


def purify(rho: np.ndarray):
    """Pure vector on system (x) ancilla whose first marginal is rho.

    The ancilla dimension equals the numerical rank of rho.
    """
    vals, vecs, live = psd_eigh(_hermitian(rho))
    v = vecs[:, live] * np.sqrt(vals[live])   # column j: sqrt(lam_j) |e_j>
    return v.reshape(-1), SystemLayout((rho.shape[0], v.shape[1]))
