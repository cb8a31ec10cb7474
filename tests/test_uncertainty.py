"""Closed-form anchors for the bound constants.

For a mutually unbiased pair every overlap is 1/d, so every bound constant
is log2 d, in either orientation and for every state and delta; and the
Maassen-Uffink relation is tight on an eigenstate of either basis (Coles et
al., arXiv:1511.04857).
"""

import math

import numpy as np
import pytest

from renyi_lab.cli import main
from renyi_lab.linalg import SystemLayout
from renyi_lab.states import DensityOperator, random_density, trial_rng
from renyi_lab.uncertainty import (
    check_rmu,
    hall_bound,
    mub_pair,
    q_delta,
    q_delta_state_independent,
    q_mu,
    r_cp,
    r_grudka,
    r_xz,
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
    rep = check_rmu(rho, pair, 1.0)
    assert abs(rep.gap) <= 1e-12
