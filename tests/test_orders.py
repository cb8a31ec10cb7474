import math

import numpy as np
import pytest

from renyi_lab.orders import (
    Degenerate,
    FORWARD,
    REVERSE,
    admissible,
    classify_case,
    hatconj,
    hconj,
    make_triple,
    noncond_orders,
    recip,
    sample_triple,
    sdg_condition,
    solve_beta,
    surface_residual,
)
from renyi_lab.states import trial_rng
from renyi_lab.uncertainty import sample_sdg_orders

INF = math.inf


# Independent statements of two order constraints, used to check the samplers
# from outside: the samplers themselves solve the constraints directly.

def noncond_condition(a: float, b: float, g: float, d: float) -> float:
    """Residual of the four-order compatibility used by the unconditioned
    mutual-information comparison.

    The intermediate order tying the two two-step derivations is
    t = (2ba - b - a)/(ba - 1); the condition states solve_beta(d, g) = t.
    """
    den1 = b * a - 1.0
    den2 = d * g - 2.0 * g + 1.0
    if abs(den1) <= 1e-12 or abs(den2) <= 1e-12:
        return math.inf
    t1 = (2.0 * b * a - b - a) / den1
    t2 = (d - g) / den2
    return abs(t1 - t2)


def ier_condition(a: float, b: float, g: float, symmetric: bool = False) -> bool:
    """Admissibility for the improved information-exclusion relations."""
    if not (a >= 0.5 and g >= 0.5 and 0.5 <= b <= 2.0):
        return False
    if not symmetric:
        if b == 2.0:
            return False
        try:
            mu = solve_beta(a, g)
        except Degenerate:
            return False
        return (not math.isinf(mu)) and abs(mu - 1.0 / (2.0 - b)) <= 1e-9 and b * g <= 1.0 + 1e-12
    if g > 2.0 - b + 1e-12:
        return False
    u = 1.0 / (2.0 - b)
    v = 1.0 / (2.0 - g)
    return surface_residual(a, u, v) <= 1e-9


# full table of particular surface solutions: rows gamma, columns alpha
TABLE = {
    (0.0, 0.0): 0.0, (0.5, 0.0): 0.5, (1.0, 0.0): 1.0, (2.0, 0.0): 2.0, (INF, 0.0): INF,
    (0.0, 0.5): INF, (0.5, 0.5): 0.0, (1.0, 0.5): 1.0, (2.0, 0.5): 1.5, (INF, 0.5): 2.0,
    (0.0, 2.0): 2.0 / 3.0, (0.5, 2.0): 0.75, (1.0, 2.0): 1.0, (2.0, 2.0): 0.0, (INF, 2.0): 0.5,
    (0.0, INF): 0.5, (0.5, INF): 2.0 / 3.0, (1.0, INF): 1.0, (2.0, INF): INF, (INF, INF): 0.0,
}


def test_conjugate_examples():
    ap, ah = hconj(2.0), hatconj(2.0)
    assert ap == pytest.approx(2.0) and ah == pytest.approx(2.0 / 3.0)
    assert hatconj(0.5) == INF
    assert hconj(1.0) == INF
    assert hconj(INF) == 1.0


def test_conjugate_relations():
    rng = trial_rng(20, 0)
    for a in rng.uniform(0.2, 5.0, size=25):
        ap, ah = hconj(float(a)), hatconj(float(a))
        assert 1 / a + 1 / ap == pytest.approx(1.0, abs=1e-12)
        assert 1 / a + 1 / ah == pytest.approx(2.0, abs=1e-12)
        assert hatconj(ah) == pytest.approx(a, abs=1e-10)          # involution
        if abs(ah - 1.0) > 1e-9:
            assert hconj(ah) == pytest.approx(-ap, abs=1e-9)       # hat-conjugate of the conjugate


def test_table_of_particular_solutions():
    for (a, g), b in TABLE.items():
        got = solve_beta(a, g)
        if math.isinf(b):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(b, abs=1e-12)
        assert surface_residual(a, got, g) <= 1e-12


def test_alpha_gamma_one_is_degenerate():
    with pytest.raises(Degenerate):
        solve_beta(1.0, 1.0)


def test_alpha_one_forces_middle_one():
    for g in (0.3, 0.7, 2.0, 5.0):
        assert solve_beta(1.0, g) == pytest.approx(1.0, abs=1e-12)


def test_surface_symmetric_in_outer_orders():
    rng = trial_rng(20, 1)
    for _ in range(25):
        a, g = rng.uniform(0.2, 4.0, size=2)
        b = solve_beta(a, g)
        assert surface_residual(a, b, g) <= 1e-11
        assert surface_residual(a, g, b) == pytest.approx(surface_residual(a, b, g), abs=1e-9)


def test_conjugate_sum_on_surface():
    rng = trial_rng(20, 2)
    for i in range(40):
        t = sample_triple(rng, "general")
        ap, bp, gp = hconj(t.alpha), hconj(t.beta), hconj(t.gamma)
        if all(map(math.isfinite, (ap, bp, gp))):
            assert ap == pytest.approx(bp + gp, abs=1e-9)


def test_ordering_sign_rule():
    rng = trial_rng(20, 3)
    seen = [0, 0]
    for i in range(300):
        t = sample_triple(rng, "general")
        a, b, g = t.alpha, t.beta, t.gamma
        s = (a - 1) * (b - 1) * (g * g - g)
        if a < g < b:
            assert s > 0
            seen[0] += 1
        elif g < b < a:
            assert s < 0
            seen[1] += 1
    assert min(seen) > 5


def test_direction_consistent_with_order_comparison():
    rng = trial_rng(20, 4)
    for i in range(200):
        t = sample_triple(rng, "general")
        if abs(t.alpha - t.beta) < 1e-9:
            continue
        if t.alpha < t.beta:
            assert t.direction == FORWARD
        else:
            assert t.direction == REVERSE


def test_case_classification():
    assert classify_case(1.5, 3.0, 3.0) == 1            # all above one
    assert make_triple(0.8, solve_beta(0.8, 0.6), 0.6).case_id == 2
    assert make_triple(2.0, solve_beta(2.0, -1.0), -1.0).case_id == 3
    assert make_triple(0.75, solve_beta(0.75, 0.9), 0.9).case_id == 4
    assert make_triple(3.0, solve_beta(3.0, 0.5), 0.5).case_id == 5
    assert make_triple(0.6, solve_beta(0.6, -1.0), -1.0).case_id == 6
    assert classify_case(2.0, 2.0, 5.0) == 0             # off the surface


def test_samplers_respect_ranges_and_cover_directions():
    for k, tag in enumerate(("general", "decomp", "bchain", "chain", "decomp-dup", "bchain-alt", "chain-dup")):
        rng = trial_rng(21, k)
        dirs = set()
        for i in range(120):
            t = sample_triple(rng, tag)
            assert t.residual <= 1e-10
            assert admissible(t, tag), (tag, t)
            assert all(math.isinf(x) or abs(x - 1) >= 1e-4 for x in t.as_tuple())
            if tag in ("chain", "chain-dup"):
                # the sign of (a-1)(b-1)(g-1) agrees with the triple's own direction
                sign = (t.alpha - 1.0) * (t.beta - 1.0) * (t.gamma - 1.0)
                assert (sign > 0) == (t.direction == FORWARD), (tag, t)
            dirs.add(t.direction)
        assert dirs == {FORWARD, REVERSE}, tag


def test_appendix_ranges_include_small_alpha():
    rng = trial_rng(21, 5)
    alphas = [sample_triple(rng, "decomp-dup").alpha for _ in range(200)]
    assert min(alphas) < 0.5   # the region the main-text ranges exclude


def test_noncond_condition_and_sampler():
    rng = trial_rng(22, 0)
    for direction in (FORWARD, REVERSE):
        for i in range(25):
            a, b, g, d = noncond_orders(rng, direction)
            assert noncond_condition(a, b, g, d) <= 1e-9
            if direction == FORWARD:
                assert d < min(a, b, g)
            else:
                assert d > max(a, b, g)


def test_noncond_equality_collapse_consistency():
    # at orders tending to one the tying order also tends to one
    t = (2 * 1.001 * 1.001 - 2 * 1.001) / (1.001 * 1.001 - 1)
    assert t == pytest.approx(1.0, abs1e3 := 1e-3)


def test_sdg_condition():
    mu = 1.5
    g = 0.6
    a = (2 * mu * g - mu - g) / (mu * g - 1.0)   # alpha = 3
    b = 1.4
    d = (b - mu) / (mu * b - 2 * mu + 1.0)       # delta = -1
    got_mu, ok = sdg_condition(a, b, g, d)
    assert ok and got_mu == pytest.approx(mu, abs=1e-9)
    _, bad = sdg_condition(a, b, g, d + 0.1)     # breaks the shared-order equality
    assert not bad
    _, bad2 = sdg_condition(a, b, 0.8, d)        # violates 2 - 1/mu <= 1/gamma
    assert not bad2


def test_sdg_sampler_meets_each_variants_constraint():
    # xz/zx: mu = beta(alpha, gamma) = beta(beta, delta), 1/delta <= 2 - 1/mu <= 1/gamma;
    # both (twin conditional): mu = beta(alpha, beta) = beta(gamma, delta), 1/delta <= 2 - 1/mu <= 1/beta
    for variant in ("xz", "zx", "both"):
        rng = trial_rng(23, 0)
        for _ in range(50):
            a, b, g, d = sample_sdg_orders(rng, variant == "both")
            if variant == "both":
                mu, mu2, bounded = solve_beta(a, b), solve_beta(g, d), b
            else:
                mu, mu2, bounded = solve_beta(a, g), solve_beta(b, d), g
            assert math.isfinite(mu) and mu == pytest.approx(mu2, abs=1e-9) and mu >= 0.5
            m = 2.0 - 1.0 / mu
            assert recip(d) <= m + 1e-12 and m <= recip(bounded) + 1e-12
            assert a >= 0.5 and min(b, g) > 0.5


def test_ier_condition():
    b = 1.2
    mu = 1.0 / (2.0 - b)
    g = 0.7
    a = (2 * mu * g - mu - g) / (mu * g - 1.0)
    assert ier_condition(a, b, g)
    assert not ier_condition(a, b, 1.0 / b + 0.2)       # violates beta*gamma <= 1
    u, v = 1.0 / (2.0 - 1.2), 1.0 / (2.0 - 0.6)
    a2 = (2 * u * v - u - v) / (u * v - 1.0)
    assert ier_condition(a2, 1.2, 0.6, symmetric=True)
    assert not ier_condition(a2, 1.2, 0.9, symmetric=True)  # gamma > 2 - beta
