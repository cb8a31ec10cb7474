"""Closed-form anchors for the bound constants.

For a mutually unbiased pair every overlap is 1/d, so every bound constant
is log2 d, in either orientation and for every state and delta; and the
Maassen-Uffink relation is tight on an eigenstate of either basis (Coles et
al., arXiv:1511.04857).  The state-independent delta bound is checked
against a per-point grid-and-Brent oracle, against a dense grid of its
objective, and against the state-dependent bound.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from renyi_lab.cli import main
from renyi_lab.linalg import SystemLayout, dagger
from renyi_lab.orders import FORWARD, hatconj, hconj
from renyi_lab.report import Instance
from renyi_lab.states import DensityOperator, random_density, trial_rng
from renyi_lab.uncertainty import (
    DELTA_ONE_WINDOW,
    DELTA_ZERO_WINDOW,
    rmu_sides,
    hall_bound,
    mub_pair,
    q_delta,
    q_delta_state_independent,
    q_mu,
    r_cp,
    r_grudka,
    r_xz,
    random_pair,
)

DELTAS = (-1.0, 0.0, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_bound_is_log_d_on_a_mub_pair(d):
    pair = mub_pair(d)
    rho = random_density(d, d, trial_rng(60, d))
    consts = {
        "q_mu": q_mu(pair),
        "hall_bound": hall_bound(pair),
        "r_xz": r_xz(pair),
        "r_xz swapped": r_xz(pair.swapped()),
        "r_cp": r_cp(pair),
        "r_grudka": r_grudka(pair),
    }
    for delta in DELTAS:
        consts[f"q_delta {delta}"] = q_delta(rho, pair, delta)
        consts[f"q_delta_state_independent {delta}"] = q_delta_state_independent(pair, delta)
    for name, value in consts.items():
        assert isinstance(value, float), name
        assert abs(value - math.log2(d)) <= 1e-12, name


def test_bounds_command_prints_log_d_for_a_mub_pair(capsys):
    assert main(["bounds", "--pair", "mub:3"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" bits")]
    assert len(rows) == 11
    for line in rows:
        assert float(line.split()[-2]) == pytest.approx(math.log2(3), abs=1e-9), line


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_maassen_uffink_is_tight_on_a_basis_eigenstate(d):
    pair = mub_pair(d)
    ket = pair.basis_x.ket(0)
    rho = DensityOperator(np.outer(ket, ket.conj()), SystemLayout((d,)))
    small, big, _ = rmu_sides(Instance("rmu", (d,), 1.0, hatconj(1.0), math.nan, None, FORWARD, rho,
                                       pair=pair))
    assert abs(big - small) <= 1e-12


# ---------------------------------------------------------------------------
# the state-independent delta bound against a per-point grid-and-Brent oracle
# and a dense grid of its objective
# ---------------------------------------------------------------------------

SI_DELTAS = (-1.5, 0.3, 0.7, 1.0, 1.0 + 5e-7, 1.6, 3.0)
ORACLE_GRID_STEP = 1e-3


def _si_objective(pair, delta):
    """f(p) of the minimax form, taken as written: delta' log2 of an eigenvalue
    of the mixed matrix itself; p is a number or an array of weights."""
    vx, vz = pair.basis_x.vectors, pair.basis_z.vectors
    if abs(delta - 1.0) <= DELTA_ONE_WINDOW:
        wx = -np.log2(pair.overlaps.max(axis=1))
        wz = -np.log2(pair.overlaps.max(axis=0))
    else:
        dp = hconj(delta)
        wx = pair.overlaps.max(axis=1) ** (1.0 / dp)
        wz = pair.overlaps.max(axis=0) ** (1.0 / dp)

    def objective(p):
        p = np.asarray(p)[..., None, None]
        lam = np.linalg.eigvalsh(p * (vx * wx) @ dagger(vx) + (1.0 - p) * (vz * wz) @ dagger(vz))
        if abs(delta - 1.0) <= DELTA_ONE_WINDOW:
            return -lam[..., 0]
        return dp * np.log2(lam[..., -1] if dp > 0 else lam[..., 0])

    return objective


def _q_delta_si_per_point(pair, delta):
    """The bound with one 2-D matrix and one eigvalsh per point of a
    1e-3 grid, refined around its best point by Brent's method."""
    if abs(delta) <= DELTA_ZERO_WINDOW:
        return q_mu(pair)
    objective = _si_objective(pair, delta)
    grid = np.arange(0.0, 1.0 + ORACLE_GRID_STEP / 2, ORACLE_GRID_STEP)
    vals = [float(objective(p)) for p in grid]
    k = int(np.argmin(vals))
    lo, hi = max(0.0, grid[k] - ORACLE_GRID_STEP), min(1.0, grid[k] + ORACLE_GRID_STEP)
    res = scipy.optimize.minimize_scalar(lambda p: float(objective(p)), bounds=(lo, hi),
                                         method="bounded", options={"xatol": 1e-10})
    return -min(float(res.fun), float(vals[k]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_si_bound_meets_the_per_point_oracle_and_a_dense_grid(d):
    # within 1e-12 bits, not ==: the zoom and the oracle evaluate different weights
    dense = np.linspace(0.0, 1.0, 10_001)
    for i in range(17):   # 51 pairs over the three dimensions
        pair = random_pair(d, trial_rng(70 + d, i))
        for delta in SI_DELTAS:
            bound = q_delta_state_independent(pair, delta)
            assert isinstance(bound, float)
            assert abs(bound - _q_delta_si_per_point(pair, delta)) <= 1e-12, (i, delta)
            # no point of the dense grid beats the minimum found
            assert np.all(bound >= -_si_objective(pair, delta)(dense) - 1e-14), (i, delta)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_si_bound_is_at_most_the_state_dependent_bound(d):
    # the state-independent bound is the minimum over states of q_delta(rho)
    for i in range(6):
        rng = trial_rng(80 + d, i)
        pair = random_pair(d, rng)
        bounds = {delta: q_delta_state_independent(pair, delta) for delta in SI_DELTAS}
        for rank in range(1, d + 1):
            for _ in range(3):
                rho = random_density(d, rank, rng)
                for delta, si in bounds.items():
                    assert si <= q_delta(rho, pair, delta) + 1e-12, (i, rank, delta)


# ---------------------------------------------------------------------------
# 0 < delta << 1: weights c^(1/delta') beyond what float64 resolves
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [3, 4])
def test_si_bound_refuses_weights_float64_cannot_resolve(d):
    # at delta = 0.001 the weights span up to d^999; at 0.01 about 4 in 10
    # random pairs at d = 3 and 4 still rounded to -inf, nan or an eigvalsh failure
    refused = 0
    for i in range(30):
        pair = random_pair(d, trial_rng(90 + d, i))
        for delta in (0.001, 0.01):
            try:
                bound = q_delta_state_independent(pair, delta)
            except FloatingPointError:
                refused += 1
                continue
            assert math.isfinite(bound) and bound >= q_mu(pair) - 1e-12, (i, delta, bound)
    assert refused >= 30


def _si_bound_50_digits(pair, delta):
    """-min over p of f(p) in 50-digit arithmetic: lambda_min of M(p) is
    concave in p (delta' < 0), so a golden-section search finds its maximum."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        dp, c = mp.mpf(hconj(delta)), mp.mpf(pair.c)
        parts = []
        for basis, cmax in ((pair.basis_x, pair.overlaps.max(axis=1)),
                            (pair.basis_z, pair.overlaps.max(axis=0))):
            v = mp.matrix(basis.vectors.tolist())
            parts.append(v * mp.diag([(mp.mpf(x) / c) ** (1 / dp) for x in cmax]) * v.transpose_conj())

        def lam_min(p):
            m = p * parts[0] + (1 - p) * parts[1]
            return min(mp.re(e) for e in mp.eighe((m + m.transpose_conj()) / 2, eigvals_only=True))

        lo, hi, g = mp.mpf(0), mp.mpf(1), (mp.sqrt(5) - 1) / 2
        for _ in range(90):
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, b) if lam_min(a) >= lam_min(b) else (a, hi)
        best = max(lam_min(lo), lam_min(mp.mpf(0)), lam_min(mp.mpf(1)))
        return float(-(mp.log(c, 2) + dp * mp.log(best, 2)))


def test_si_bound_accepted_near_the_refusal_edge_meets_50_digits():
    # the deltas the refusal edge falls between for random pairs at d = 3
    checked = 0
    for i in range(4):
        pair = random_pair(3, trial_rng(95, i))
        for delta in (0.02, 0.03, 0.05):
            try:
                bound = q_delta_state_independent(pair, delta)
            except FloatingPointError:
                continue
            checked += 1
            assert abs(bound - _si_bound_50_digits(pair, delta)) <= 1e-9, (i, delta)
    assert checked >= 6
