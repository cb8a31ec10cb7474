"""Dense complex linear-operator kernel.

The PSD spectral kernel (one clamp and support-cutoff policy for a matrix, a
(..., d, d) stack or a Kronecker product from its factors, and the matrix powers
built on it), the sandwich kernel (the spectrum of sigma^c rho sigma^c from a
factor of rho), Schatten (quasi-)norms, partial traces over subsystem
layouts, and purification; plain numpy on small matrices (dims <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues of a decomposed matrix below EIG_CUTOFF * lambda_max are treated
# as exact zeros (pseudoinverse convention, applied for every exponent); a
# sandwich spectrum read off a factor is not cut (`sandwich_spectrum`).
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


def sandwich_spectrum(weight, c: float, g: np.ndarray) -> np.ndarray:
    """The ascending spectrum of sigma^c rho sigma^c for rho = G G^dagger, given
    by a factor G (n x r) or a (..., n, r) stack of factors, and sigma by its
    `psd_eigh` or `kron_eigh` triple (w, V, live): the squared singular values
    of diag(w^c) V^dagger G on sigma's support, min(|live|, r) of them.

    Only the weight's support cuts rho.  No value is dropped relative to the
    largest, so a small one raised to a small order still counts, and each is
    read off the factor: the eigenvalues of the n x n product would carry an
    absolute error near eps * lambda_max.  The rows go in decreasing order of
    w^c: Householder reduction of a row-graded matrix sorted that way keeps
    each small value accurate relative to itself.  Against 50 digits, at
    orders near 0.07, where w^c spans 1e-11, that leaves about 1e-15 bits of
    error, where rows in increasing order leave 3e-9.
    """
    w, v, live = weight
    power = w[live] ** c
    rows = np.argsort(power)[::-1]
    x = (dagger(v[:, live][:, rows]) * power[rows, None]) @ g
    return np.linalg.svd(x, compute_uv=False)[..., ::-1] ** 2


def support_factor(lam: np.ndarray, v: np.ndarray, live: np.ndarray) -> np.ndarray:
    """V sqrt(lambda) on the support of a `psd_eigh` triple: a factor G of the
    matrix it decomposes, G G^dagger, one column per live eigenvalue."""
    return v[:, live] * np.sqrt(lam[live])


def narrow_factor(g: np.ndarray) -> np.ndarray:
    """A factor of G G^dagger, G n x r or a (..., n, r) stack, with at most n
    columns: G when r <= n, else R^dagger of G^dagger = QR."""
    return g if g.shape[-1] <= g.shape[-2] else dagger(np.linalg.qr(dagger(g), mode="r"))


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


def partial_trace_factor(g: np.ndarray, dims, keep) -> np.ndarray:
    """A factor of `partial_trace(G G^dagger, dims, keep)` from a factor G: the
    rows of G with every system not in `keep` moved into its columns."""
    layout = as_layout(dims)
    keep = sorted(set(int(k) for k in keep))
    traced = [k for k in range(len(layout.dims)) if k not in keep]
    g = g.reshape(*layout.dims, -1).transpose(*keep, *traced, len(layout.dims))
    return g.reshape(int(np.prod([layout.dims[k] for k in keep])), -1)


def purify(rho: np.ndarray):
    """Pure vector on system (x) ancilla whose first marginal is rho.

    The ancilla dimension equals the numerical rank of rho.
    """
    v = support_factor(*psd_eigh(_hermitian(rho)))   # column j: sqrt(lam_j) |e_j>
    return v.reshape(-1), SystemLayout((rho.shape[0], v.shape[1]))
