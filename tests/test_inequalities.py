import math

import numpy as np
import pytest

from renyi_lab.entropies import ALPHA_ONE_WINDOW
from renyi_lab.inequalities import SUITES, _entropy_weight_term, _rank_deficient_pair, run_suite
from renyi_lab.linalg import SystemLayout
from renyi_lab.states import DensityOperator, random_density, random_pure, trial_rng


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



@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (8, 8)])
def test_rank_deficient_pair_is_built_from_its_draws(da, db):
    # u, the scale, then rho_A's factor, in that order; rho_A (x) |u><u| is
    # built from the factor G_A (x) u, so it meets the checked product to rounding
    for i in range(5):
        rng, again = trial_rng(4, 100 * i + da * db), trial_rng(4, 100 * i + da * db)
        rho, tau = _rank_deficient_pair(rng, da, db)
        u = random_pure(db, again)
        scale = float(again.uniform(0.3, 1.5))
        want = DensityOperator(np.kron(random_density(da, da, again).mat, np.outer(u, u.conj())),
                               SystemLayout((da * db,)))
        assert rho.layout == want.layout
        assert np.abs(rho.mat - want.mat).max() <= 4e-15
        assert np.array_equal(tau, scale * np.outer(u, u.conj()))
        assert rng.random() == again.random()


def test_trials_check_no_state_by_its_spectrum(monkeypatch):
    # every state a trial draws or derives (a sample, a pinching, a marginal,
    # an optimum) is PSD by construction and checked by its trace alone
    monkeypatch.setattr(DensityOperator, "__post_init__", lambda self: pytest.fail("eigh check"))
    for tag in SUITES:
        reports, _ = run_suite(tag, 3, (2, 2, 2), 5)
        assert all(r.verdict != "error" for r in reports), tag


@pytest.mark.parametrize("tag, allowed", [("general", {0, 1, 2}), ("hall-classical", {0})])
def test_wide_trials_decompose_few_64_by_64_matrices(tag, allowed, monkeypatch):
    # weights are decomposed through their 8 x 8 factors and a drawn state is
    # built as G G^dagger, never decomposed: general keeps one sandwich (or,
    # near alpha = 1, rho's logarithm) per divergence; hall-classical reads
    # only its cq state's register sectors
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
