"""Bloch-ball grid search: the tests' qubit reference for optimisations over
one qubit weight.

An exhaustive lattice over the Bloch ball, refined by Nelder-Mead in a chart
that reaches the boundary.  Only the tests call it; the sweep never does.
"""

import math

import numpy as np
import scipy.optimize

REFINE_ITER = 200     # Nelder-Mead iterations of the Bloch-grid refinement


def bloch_density(xyz: np.ndarray) -> np.ndarray:
    """Qubit density matrices from a (..., 3) array of Bloch vectors."""
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    out = np.empty(xyz.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = (1.0 + z) / 2.0
    out[..., 1, 1] = (1.0 - z) / 2.0
    out[..., 0, 1] = (x - 1j * y) / 2.0
    out[..., 1, 0] = (x + 1j * y) / 2.0
    return out


def bloch_grid(n_r: int = 64, n_theta: int = 64, n_phi: int = 64) -> np.ndarray:
    """Bloch-ball lattice of qubit states, radius capped below 1."""
    r = np.linspace(0.0, 0.999, n_r)
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    rr, tt, pp = np.meshgrid(r, theta, phi, indexing="ij")
    xyz = np.stack(
        [rr * np.sin(tt) * np.cos(pp), rr * np.sin(tt) * np.sin(pp), rr * np.cos(tt)],
        axis=-1,
    )
    return xyz.reshape(-1, 3)


_R_MAX = 1.0 - 2e-11  # (1 - r)/2 = 1e-11, a decade above the cutoff like the floor


def _ball_from_free(v: np.ndarray) -> np.ndarray:
    """Unconstrained R^3 -> open Bloch ball, radius _R_MAX tanh(|v|)."""
    n = float(np.linalg.norm(v))
    if n < 1e-14:
        return np.zeros(3)
    return v * (math.tanh(n) * _R_MAX / n)


def _free_from_ball(xyz: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(xyz))
    if r < 1e-14:
        return np.zeros(3)
    r = min(r, _R_MAX)
    return xyz * (math.atanh(r) / float(np.linalg.norm(xyz)))


def refine_ball(value, start_xyz: np.ndarray, maxiter: int, restarts: int = 2):
    """Nelder-Mead over the open Bloch ball in a boundary-reaching chart.

    Uses a uniform-scale initial simplex (the default proportional one
    degenerates on lattice points with zero coordinates) and restarts to
    escape premature simplex collapse.
    """
    fun = lambda v: value(_ball_from_free(np.asarray(v)))
    v0 = _free_from_ball(np.asarray(start_xyz, dtype=float))
    total = 0
    fbest = math.inf
    scale = 0.15
    for _ in range(restarts + 1):
        simplex = np.vstack([v0, v0 + scale * np.eye(3)])
        res = scipy.optimize.minimize(
            fun, v0, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-14,
                     "initial_simplex": simplex},
        )
        total += int(res.nit)
        if float(res.fun) >= fbest - 1e-15:
            v0, fbest = res.x, min(fbest, float(res.fun))
            break
        v0, fbest = res.x, float(res.fun)
        scale *= 0.1
    return _ball_from_free(v0), fbest, total


def grid_qubit_minimize(objective, grid_points: tuple[int, int, int], maximize: bool = False):
    """Exhaustive Bloch-ball search plus local refinement: the tests' qubit
    reference for optimised entropies and norms.

    `objective` must accept a (k, 2, 2) stack and return (k,) values; a
    single state is passed as a one-matrix stack.  `grid_points` is the
    (radius, polar, azimuth) lattice size.  Returns (sigma, value,
    iterations); iterations counts the grid points plus the refinement steps.
    """
    sign = -1.0 if maximize else 1.0
    pts = bloch_grid(*grid_points)
    vals = np.empty(len(pts))
    chunk = 65536
    for k in range(0, len(pts), chunk):
        vals[k:k + chunk] = sign * np.asarray(objective(bloch_density(pts[k:k + chunk])))
    best = int(np.nanargmin(vals))

    def scalar(xyz):
        return sign * float(objective(bloch_density(xyz)[None])[0])

    xyz, fref, nit = refine_ball(scalar, pts[best], REFINE_ITER)
    if fref > vals[best]:
        xyz, fref = pts[best], float(vals[best])
    sigma = bloch_density(np.asarray(xyz))
    return sigma, sign * fref, nit + len(pts)
