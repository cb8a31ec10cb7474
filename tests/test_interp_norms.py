import math

import numpy as np
import pytest

from renyi_lab.interp_norms import CommutatorViolation, gamma_weight, log_convexity_check
from renyi_lab.linalg import frac_power
from renyi_lab.states import random_density, trial_rng


def _commuting_case(rng):
    d = int(rng.integers(2, 5))
    weights = [np.diag(rng.uniform(0.05, 1.0, d)) for _ in range(4)]
    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return d, weights, y


class TestLogConvexity:
    def test_gap_nonnegative_on_commuting_weights(self):
        for i in range(40):
            rng = trial_rng(40, i)
            _, (s1, s2, t1, t2), y = _commuting_case(rng)
            f0, f1 = rng.uniform(-2.0, 2.0, size=2)
            q0 = float(rng.uniform(1.0, 6.0))
            q1 = math.inf if i % 5 == 0 else float(rng.uniform(1.0, 6.0))
            theta = float(rng.uniform())
            gap = log_convexity_check(y, s1, s2, t1, t2, lambda t: f0 + t * (f1 - f0), q0, q1, theta)
            assert gap >= -1e-12

    def test_endpoints_are_tight(self):
        rng = trial_rng(40, 100)
        _, (s1, s2, t1, t2), y = _commuting_case(rng)
        f = lambda t: 0.5 - 1.5 * t
        for theta in (0.0, 1.0):
            gap = log_convexity_check(y, s1, s2, t1, t2, f, 2.0, 4.0, theta)
            assert gap == pytest.approx(0.0, abs=1e-12)

    def test_noncommuting_weights_raise(self):
        rng = trial_rng(40, 200)
        _, (s1, s2, t1, t2), y = _commuting_case(rng)
        d = s1.shape[0]
        s_full = random_density(d, d, rng).mat
        with pytest.raises(CommutatorViolation):
            log_convexity_check(y, s_full, s2, t1, t2, lambda t: t, 2.0, 4.0, 0.5)
        with pytest.raises(CommutatorViolation):
            log_convexity_check(y, s1, s_full, t1, t2, lambda t: t, 2.0, 4.0, 0.5)

    @pytest.mark.parametrize("q0, q1", [(0.0, 2.0), (2.0, 0.0), (-1.0, 2.0), (2.0, -3.0)])
    def test_nonpositive_orders_raise(self, q0, q1):
        rng = trial_rng(40, 300)
        _, (s1, s2, t1, t2), y = _commuting_case(rng)
        with pytest.raises(ValueError, match="positive"):
            log_convexity_check(y, s1, s2, t1, t2, lambda t: t, q0, q1, 0.5)


def test_gamma_weight_is_two_sided_power():
    rng = trial_rng(41, 0)
    sig, tau = random_density(3, 3, rng).mat, random_density(3, 3, rng).mat
    m = rng.standard_normal((3, 3)) + 0j
    out = gamma_weight(m, sig, tau, 0.6)
    assert np.abs(out - frac_power(sig, 0.3) @ m @ frac_power(tau, 0.3)).max() < 1e-12
    assert np.abs(gamma_weight(m, None, None) - m).max() == 0.0
