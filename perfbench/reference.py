"""Closed forms the benchmark checks optimised solves against.

Everything here is independent of `renyi_lab`: plain numpy on spectra and
joint distributions, logarithms base 2, 0 log 0 = 0.

- Pure states: H^up_alpha(A|B) = -H_beta(A) with 1/alpha + 1/beta = 2
  (Mueller-Lennert, Dupuis, Szehr, Fehr, Tomamichel, arXiv:1306.3142).
- Classical states: H^up_alpha(X|Y) is the Arimoto conditional entropy and
  I^up_alpha(X:Y) = min_sigma D_alpha(P_XY || P_X x sigma_Y) is Sibson's
  information.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def dual_order(alpha: float) -> float:
    """beta with 1/alpha + 1/beta = 2; alpha = inf maps to 1/2."""
    if math.isinf(alpha):
        return 0.5
    if alpha == 0.5:
        return math.inf
    return alpha / (2.0 * alpha - 1.0)


def _log2_mean_exp(weights: np.ndarray, u: np.ndarray) -> float:
    """log2(sum_i w_i exp(u_i)) for weights summing to 1.

    Written as log1p(sum w expm1(u)) so that orders near 1, where every u_i
    is tiny, do not cancel.
    """
    return math.log1p(float(np.sum(weights * np.expm1(u)))) / LN2


def renyi_entropy(p, beta: float) -> float:
    """H_beta of a pmf (unnormalised input is normalised), beta in [0, inf]."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0] / p.sum()
    if math.isinf(beta):
        return float(-np.log2(p.max()))
    if beta == 0.0:
        return float(np.log2(p.size))
    if beta == 1.0:
        return float(-np.sum(p * np.log2(p)))
    # sum p^beta = sum p exp((beta - 1) ln p)
    eps = beta - 1.0
    return _log2_mean_exp(p, eps * np.log(p)) / -eps


def pure_cond_entropy_up(schmidt_sq, alpha: float) -> float:
    """H^up_alpha(A|B) of a pure state with squared Schmidt coefficients."""
    return -renyi_entropy(schmidt_sq, dual_order(alpha))


def classical_cond_entropy_up(p_xy, alpha: float) -> float:
    """H^up_alpha(X|Y) of a joint pmf indexed [x, y] (Arimoto form).

    alpha/(1 - alpha) log2 sum_y p(y) ||p(.|y)||_alpha.
    """
    p = np.asarray(p_xy, dtype=float)
    p = p / p.sum()
    py = p.sum(axis=0)
    p, py = p[:, py > 0.0], py[py > 0.0]
    if math.isinf(alpha):
        return float(-np.log2(np.sum(p.max(axis=0))))
    if alpha == 1.0:
        return renyi_entropy(p.ravel(), 1.0) - renyi_entropy(py, 1.0)
    eps = alpha - 1.0
    cond = p / py
    # log ||q||_alpha = (1/alpha) log sum_x q_x exp(eps ln q_x), per column y
    log_norm = np.array([_log2_mean_exp(q[q > 0.0], eps * np.log(q[q > 0.0])) for q in cond.T]) * LN2 / alpha
    return -alpha / eps * _log2_mean_exp(py, log_norm)


def classical_mutual_info_up(p_xy, alpha: float) -> float:
    """Sibson's I_alpha(X:Y) of a joint pmf indexed [x, y].

    alpha/(alpha - 1) log2 sum_y (sum_x p(x) p(y|x)^alpha)^(1/alpha).
    """
    p = np.asarray(p_xy, dtype=float)
    p = p / p.sum()
    px = p.sum(axis=1)
    p, px = p[px > 0.0], px[px > 0.0]
    py = p.sum(axis=0)
    p, py = p[:, py > 0.0], py[py > 0.0]
    if alpha == 1.0:
        return renyi_entropy(px, 1.0) + renyi_entropy(py, 1.0) - renyi_entropy(p.ravel(), 1.0)
    cond = p / px[:, None]
    if math.isinf(alpha):
        return float(np.log2(np.sum(cond.max(axis=0))))
    eps = alpha - 1.0
    # (sum_x p(x) p(y|x)^alpha)^(1/alpha) = p(y) exp(u_y) with
    # u_y = (1/alpha) [log sum_x p(x|y) exp(eps ln p(y|x)) - eps ln p(y)]
    u = np.empty(py.size)
    for y in range(py.size):
        live = p[:, y] > 0.0
        inner = _log2_mean_exp(p[live, y] / py[y], eps * np.log(cond[live, y])) * LN2
        u[y] = (inner - eps * math.log(py[y])) / alpha
    return alpha / eps * _log2_mean_exp(py, u)
