import math

import numpy as np
import pytest

from renyi_lab.entropies import ALPHA_ONE_WINDOW
from renyi_lab.inequalities import _entropy_weight_term, run_suite
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



@pytest.mark.parametrize("tag, allowed", [("general", {1, 2, 3}), ("hall-classical", {0})])
def test_wide_trials_decompose_few_64_by_64_matrices(tag, allowed, monkeypatch):
    # weights are decomposed through their 8 x 8 factors and a state is checked
    # once: general keeps the draw of rho and one sandwich (or, near alpha = 1,
    # rho's logarithm) per divergence; hall-classical checks its cq state
    # through its 8 x 8 blocks and reads only its register sectors
    sizes = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        def counted(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
            sizes.extend([np.shape(a)[-1]] * math.prod(np.shape(a)[:-2]))
            return _decompose(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for seed in range(20):
        sizes.clear()
        reports, _ = run_suite(tag, 1, (8, 8), seed)
        assert reports[0].verdict != "error", reports[0].note
        assert sizes.count(64) in allowed, (seed, sizes.count(64))
