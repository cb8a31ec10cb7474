"""Weighting map and the numerical log-convexity check behind the paper's
complex-interpolation argument (Beigi, arXiv:1306.5920).

Matrix powers follow the PSD spectral kernel of `linalg`, per matrix:
negative eigenvalues inside the clamp band (relative to max(1, lambda_max))
count as 0, lower ones raise `NotPositiveSemidefinite`, and eigenvalues below
the support cutoff (relative to lambda_max) are off the support for every
exponent, negative ones included (pseudoinverse convention).
"""

from __future__ import annotations

import numpy as np

from .entropies import weighted_norm
from .linalg import frac_power
from .orders import recip

COMMUTATOR_TOL = 1e-9


class CommutatorViolation(ValueError):
    pass


def gamma_weight(m: np.ndarray, sigma, tau, exponent: float = 1.0) -> np.ndarray:
    """Two-sided weighting m -> sigma^(e/2) m tau^(e/2); None means identity."""
    out = np.asarray(m, dtype=complex)
    if sigma is not None:
        out = frac_power(sigma, exponent / 2.0) @ out
    if tau is not None:
        out = out @ frac_power(tau, exponent / 2.0)
    return out


def log_convexity_check(y, sigma1, sigma2, tau1, tau2, f, q0: float, q1: float, theta: float) -> float:
    """Gap of the interpolation bound for the weighted norm of a weighted
    operator along an affine exponent path.

    Requires [sigma1, tau1] = [sigma2, tau2] = 0.  Returns rhs - lhs of

        ||G^f(theta)(y)||_{q_theta,(tau1,tau2)}
            <= ||G^f(0)(y)||_{q0,...}^(1-theta) * ||G^f(1)(y)||_{q1,...}^theta
    """
    y = np.asarray(y, dtype=complex)
    s1, s2 = np.asarray(sigma1, dtype=complex), np.asarray(sigma2, dtype=complex)
    t1, t2 = np.asarray(tau1, dtype=complex), np.asarray(tau2, dtype=complex)
    for a, b in ((s1, t1), (s2, t2)):
        comm = a @ b - b @ a
        if np.abs(comm).max() > COMMUTATOR_TOL * (1.0 + np.abs(a).max() * np.abs(b).max()):
            raise CommutatorViolation("weight pairs must commute")
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    if not (q0 > 0.0 and q1 > 0.0):
        raise ValueError("norm orders q0 and q1 must be positive")
    q_theta = recip((1.0 - theta) * recip(q0) + theta * recip(q1))

    def side(expo, q):
        return weighted_norm(gamma_weight(y, s1, s2, expo), q, t1, t2)

    lhs = side(f(theta), q_theta)
    rhs = side(f(0.0), q0) ** (1.0 - theta) * side(f(1.0), q1) ** theta
    return rhs - lhs
