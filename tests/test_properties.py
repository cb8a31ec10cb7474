"""Property tests over rank-deficient states and weights: the min-entropy
programme at the edge order alpha = inf, and the divergence against a product
weight decomposed through its factors at the edge orders."""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from renyi_lab.entropies import STOPS, gen_mutual_info, sandwiched_divergence, _divergence_any_order
from renyi_lab.linalg import frac_power, kron_eigh, partial_trace, psd_eigh
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
        p = np.kron(frac_power(tau, 0.0), np.eye(dims[1]))
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
    outside = np.trace(rho_a).real - np.trace(frac_power(tau, 0.0) @ rho_a).real
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


# the orders 1/2 and inf at the edges, both sides of the order-one window and inside it
EDGE_ORDERS = (0.5, 0.75, 1.0 - 5e-7, 1.0, 1.0 + 5e-7, 2.0, 12.0, math.inf)
# (dims, positions of the non-identity factors): the weights id (x) tau of the
# decomp (tau first), general and chain layouts, and general's sigma_A (x) tau_B
PRODUCT_LAYOUTS = [((2, 3), (0,)), ((3, 2), (0,)), ((2, 3), (1,)), ((3, 2), (1,)),
                   ((2, 2, 3), (2,)), ((3, 2, 2), (2,)), ((2, 3), (0, 1)), ((3, 2), (0, 1))]


@st.composite
def product_weight(draw):
    """(G, factors, dims): a weight's factors in layout order, each a zero,
    rank-one or random-rank density matrix or an identity (its dimension), and
    the factor G of a rho = G G^dagger of any rank; with `inside`, rho is
    compressed onto supp of the weight."""
    dims, positions = draw(st.sampled_from(PRODUCT_LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for k, d in enumerate(dims):
        rank = draw(st.sampled_from([0, 1, d]) | st.integers(1, d)) if k in positions else None
        factors.append(d if rank is None else np.zeros((d, d), complex) if rank == 0
                       else random_density(d, rank, rng).mat)
    n = math.prod(dims)
    g = random_density(n, draw(st.integers(1, n)), rng).factor
    if draw(st.booleans()):
        pg = frac_power(_dense(factors), 0.0) @ g
        if np.linalg.norm(pg) ** 2 > 1e-6:
            g = pg / np.linalg.norm(pg)
    return g, factors, dims


def _dense(factors):
    return functools.reduce(np.kron, [np.eye(f) if isinstance(f, int) else f for f in factors])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(product_weight())
def test_a_product_weight_from_its_factors_matches_the_dense_product(case):
    g, factors, dims = case
    weight = kron_eigh([f if isinstance(f, int) else psd_eigh(f) for f in factors])
    dense = psd_eigh(_dense(factors))
    assert np.all(np.diff(weight[0]) >= 0.0)
    for alpha in EDGE_ORDERS:
        got, want = _divergence_any_order(g, weight, alpha), _divergence_any_order(g, dense, alpha)
        assert math.isinf(got) == math.isinf(want), (dims, alpha, got, want)
        if math.isfinite(want):
            # the dense decomposition rounds at about 1e-13 of D (D reaches 13 bits)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want))), (dims, alpha)
