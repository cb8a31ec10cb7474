"""50-digit reference for sandwiched Renyi divergences, built from a state's factor.

rho = G G^dagger / tr(G G^dagger) is normalised in 50 digits: a float64 trace
error of 1e-16 would move D_alpha by up to 1e-16 / |alpha - 1| bits.  sigma^c
comes from `mpmath.eighe` on sigma's support, the eigenvalues above 1e-12 of
its largest, as the library cuts a weight.  The sandwich spectrum is that of
the r x r Gram matrix (sigma^c G)^dagger (sigma^c G), which 50 digits resolve
far below any eigenvalue a sampled state carries.  Only the tests call it.
"""

import math

import mpmath as mp
import numpy as np

DPS = 50
WEIGHT_CUTOFF = 1e-12   # the library's EIG_CUTOFF, applied to the weight alone
SUPPORT_TOL = 1e-9      # the library's, on rho's trace inside and outside supp sigma


def divergence(g: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """D_alpha(rho || sigma) in bits for rho = G G^dagger / tr, alpha > 0 and not 1;
    +inf where rho misses supp sigma or, from alpha > 1 on, leaves it, each by
    more than SUPPORT_TOL of its trace, so float64 rounding of a state drawn
    on the support does not count as leaving it."""
    with mp.workdps(DPS):
        factor = mp.matrix(np.asarray(g, dtype=complex).tolist())
        weight = mp.matrix(np.asarray(sigma, dtype=complex).tolist())
        w, v = mp.eighe((weight + weight.transpose_conj()) / 2)
        top = max(mp.re(x) for x in w)
        live = [k for k in range(len(w)) if mp.re(w[k]) > WEIGHT_CUTOFF * top]
        total = sum(abs(x) ** 2 for x in factor)
        proj = mp.matrix([[mp.conj(v[i, k]) for i in range(v.rows)] for k in live]) * factor
        inside = sum(abs(x) ** 2 for x in proj) / total
        if 1 - inside > SUPPORT_TOL and alpha > 1.0 or inside <= SUPPORT_TOL:
            return math.inf
        c = mp.mpf(-0.5) if math.isinf(alpha) else (1 - mp.mpf(alpha)) / (2 * mp.mpf(alpha))
        x = mp.diag([mp.re(w[k]) ** c for k in live]) * proj / mp.sqrt(total)
        lam = [mp.re(e) for e in mp.eighe(x.transpose_conj() * x, eigvals_only=True)]
        if math.isinf(alpha):
            return float(mp.log(max(lam), 2))
        a = mp.mpf(alpha)
        return float(mp.log(sum(e ** a for e in lam if e > 0), 2) / (a - 1))
