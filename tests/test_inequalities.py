import numpy as np
import pytest

from renyi_lab import inequalities, report
from renyi_lab.entropies import ALPHA_ONE_WINDOW
from renyi_lab.inequalities import _entropy_weight_term, run_suite
from renyi_lab.orders import FORWARD, REVERSE, make_triple, product_sign
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


@pytest.mark.parametrize("tag, pair", [("general", (0, 1)), ("decomp", (0, 1)),
                                       ("decomp-dup", (0, 1)), ("chain", (0, 2)),
                                       ("chain-dup", (0, 2))])
def test_support_precondition_skips_only_above_order_one(monkeypatch, tag, pair):
    # no sampled weight misses the support, so force the dominance test to fail:
    # a trial is then skipped exactly when one of its two named orders is >= 1
    monkeypatch.setattr(inequalities, "_dominates_embedded", lambda *args: False)
    reports, _ = run_suite(tag, 12, (2, 2, 2), 7, explore=tag == "chain-dup")
    verdicts = set()
    for r in reports:
        orders = (r.alpha, r.beta, r.gamma)
        unsupported = not all(orders[k] < 1 for k in pair)
        assert (r.verdict == report.SKIPPED) == unsupported, r
        verdicts.add(r.verdict)
        if unsupported:
            assert np.isnan(r.gap) and r.note == "support precondition violated at orders above 1"
            # a skipped chain-dup trial keeps its product-sign direction
            t = make_triple(*orders)
            by_sign = FORWARD if product_sign(t) > 0 else REVERSE
            assert r.direction == (by_sign if tag == "chain-dup" else t.direction)
    assert report.SKIPPED in verdicts and verdicts - {report.SKIPPED}
