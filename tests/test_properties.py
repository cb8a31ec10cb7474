"""Property tests over rank-deficient states and weights at the edge order alpha = inf."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from renyi_lab.entropies import STOPS, gen_mutual_info, sandwiched_divergence
from renyi_lab.linalg import partial_trace, support_projector
from renyi_lab.states import random_density


@st.composite
def state_and_weight(draw):
    """(rho_AB, tau_A, dims): rho of any rank, tau of rank below d_A; with
    `inside`, rho is compressed onto supp tau (x) B so that tau dominates rho_A."""
    dims = (draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = dims[0] * dims[1]
    rho = random_density(d, draw(st.integers(1, d)), rng, dims=dims).mat
    tau = random_density(dims[0], draw(st.integers(1, dims[0] - 1)), rng).mat
    if draw(st.booleans()):
        p = np.kron(support_projector(tau), np.eye(dims[1]))
        rho = p @ rho @ p
        rho = rho / np.trace(rho).real
    return rho, tau, dims


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(state_and_weight())
def test_min_entropy_mutual_information_is_attained_certified_and_nonnegative(case):
    rho, tau, dims = case
    res = gen_mutual_info(rho, tau, math.inf, dims, fixed=0)
    assert res.stop in STOPS
    rho_a = partial_trace(rho, dims, [0])
    outside = np.trace(rho_a).real - np.trace(support_projector(tau) @ rho_a).real
    if outside > 1e-9:
        assert res.value == math.inf
        return
    assert res.value >= -1e-12
    assert res.residual <= 1e-10
    attained = sandwiched_divergence(rho, np.kron(tau, res.optimum.mat), math.inf)
    assert res.value == pytest.approx(attained, abs=1e-12 * max(1.0, abs(attained)))
    # I_alpha rises with alpha, and no other weight on B does better: the optimum
    # at order 20, the marginal and random states
    order_20 = gen_mutual_info(rho, tau, 20.0, dims, fixed=0)
    assert res.value >= order_20.value - 1e-9
    rng = np.random.default_rng(0)
    others = [order_20.optimum.mat, partial_trace(rho, dims, [1])]
    others += [random_density(dims[1], dims[1], rng).mat for _ in range(2)]
    for sigma in others:
        assert res.value <= sandwiched_divergence(rho, np.kron(tau, sigma), math.inf) + 1e-10
