"""Hand-known cases for the benchmark's closed forms (reference.py)."""

import math

import numpy as np
import pytest

import reference

ORDERS = (0.5, 0.75, 1.0, 1.0 + 1e-7, 2.0, 4.0, math.inf)


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_maximally_entangled_cond_entropy_is_minus_log_d(d, alpha):
    assert reference.pure_cond_entropy_up(np.full(d, 1.0 / d), alpha) == pytest.approx(-math.log2(d), abs=1e-12)


@pytest.mark.parametrize("alpha", ORDERS)
def test_independent_classical_cond_entropy_is_marginal_entropy(alpha):
    px = np.array([0.5, 0.3, 0.2])
    py = np.array([0.1, 0.6, 0.1, 0.2])
    assert reference.classical_cond_entropy_up(np.outer(px, py), alpha) == \
        pytest.approx(reference.renyi_entropy(px, alpha), abs=1e-12)


@pytest.mark.parametrize("alpha", ORDERS)
def test_product_distribution_has_zero_mutual_information(alpha):
    p = np.outer([0.7, 0.2, 0.1], [0.25, 0.25, 0.4, 0.1])
    assert reference.classical_mutual_info_up(p, alpha) == pytest.approx(0.0, abs=1e-12)


def test_renyi_entropy_near_one_matches_shannon():
    p = np.array([0.6, 0.3, 0.1])
    shannon = reference.renyi_entropy(p, 1.0)
    for beta in (1.0 - 1e-9, 1.0 + 1e-9):
        assert reference.renyi_entropy(p, beta) == pytest.approx(shannon, abs=1e-8)


def test_min_entropy_duality_on_a_qubit_pair():
    # alpha = inf pairs with beta = 1/2: H_min(A|B) = -2 log2(sum sqrt(lambda))
    lam = np.array([0.8, 0.2])
    expected = -2.0 * math.log2(math.sqrt(0.8) + math.sqrt(0.2))
    assert reference.pure_cond_entropy_up(lam, math.inf) == pytest.approx(expected, abs=1e-12)
