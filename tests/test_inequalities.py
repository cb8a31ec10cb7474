import numpy as np

from renyi_lab.entropies import ALPHA_ONE_WINDOW
from renyi_lab.inequalities import _entropy_weight_term
from renyi_lab.states import random_density, trial_rng


def test_weight_term_takes_the_order_one_route_across_the_alpha_one_window():
    # the divergence it is paired with switches to the relative entropy at
    # |gamma - 1| <= ALPHA_ONE_WINDOW, so the weight term must switch there too
    assert ALPHA_ONE_WINDOW > 5e-7
    for i in range(5):
        rng = trial_rng(3, i)
        rho = random_density(2, 2, rng).mat
        sigma = random_density(2, 2, rng).mat
        at_one = _entropy_weight_term(1.0, rho, sigma)
        for gamma in (1.0 - 5e-7, 1.0 + 5e-7):
            assert _entropy_weight_term(gamma, rho, sigma) == at_one
        # just outside the window the gamma' formula is continuous with it
        for gamma in (1.0 - 2e-6, 1.0 + 2e-6):
            assert np.isclose(_entropy_weight_term(gamma, rho, sigma), at_one, atol=1e-4)

