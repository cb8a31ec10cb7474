"""Renyi-order algebra: conjugates, the order-constraint surface, and samplers.

The surface a*b*g - 2*b*g - a + b + g = 0 (equivalently a' = b' + g' in Holder
conjugates) ties the three orders appearing in the divergence inequalities.
Infinities are handled through the limit forms obtained by dividing the
constraint by the diverging parameter; the inf float is treated projectively
(one point at infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SURFACE_TOL = 1e-10
NEAR_ONE = 1e-4  # sample_triple and noncond_orders keep every order this far from 1

FORWARD = "forward"   # 1/beta + 1/gamma <= 2
REVERSE = "reverse"   # 1/beta + 1/gamma >= 2
UNCLASSIFIED = 0

# per inequality family: the `_draw_outer_pair` modes it samples from, then
# its admissible ranges (min_alpha, alpha_strict), (min_beta, beta_strict),
# (min_gamma, gamma_strict); None = unconstrained
THEOREM_ORDERS = {
    "general":    ((1, 2, 3, 4, 5, 6), (0.5, False), (0.5, False), None),
    "decomp":     ((1, 2, 4, 5),       (0.5, False), (0.5, False), (0.0, False)),
    "bchain":     ((1, 2, 4, 5),       (0.5, False), (0.5, False), (0.0, False)),
    "chain":      ((1, 2, 4, 5),       (0.5, False), (0.5, True),  (0.5, False)),
    "decomp-dup": ((1, 2, 4, 5, 7, 8), (0.0, False), (0.5, True),  (0.5, False)),
    "bchain-alt": ((1, 2, 4, 5, 7, 8), (0.0, False), (0.5, True),  (0.5, False)),
}
# chain-dup is chain under a second tag: the same orders and the same trial
THEOREM_ORDERS["chain-dup"] = THEOREM_ORDERS["chain"]


class Degenerate(ValueError):
    pass


def recip(x: float) -> float:
    """1/x on the projective line: inf maps to 0 and 0 to inf."""
    if math.isinf(x):
        return 0.0
    return math.inf if x == 0.0 else 1.0 / x


def hconj(a: float) -> float:
    """Holder conjugate a' with 1/a + 1/a' = 1; a=1 maps to +inf."""
    if math.isinf(a):
        return 1.0
    if a == 1.0:
        return math.inf
    return a / (a - 1.0)


def hatconj(a: float) -> float:
    """Hat conjugate a^ with 1/a + 1/a^ = 2; a=1/2 maps to +inf."""
    if math.isinf(a):
        return 0.5
    if a == 0.5:
        return math.inf
    return a / (2.0 * a - 1.0)


def surface_residual(a: float, b: float, g: float) -> float:
    """Defect of the order constraint, using limit forms at infinities."""
    infs = [math.isinf(x) for x in (a, b, g)]
    match sum(infs):
        case 0:
            return abs(a * b * g - 2.0 * b * g - a + b + g)
        case 1:
            if infs[0]:
                return abs(b * g - 1.0)
            if infs[1]:
                return abs(a * g - 2.0 * g + 1.0)
            return abs(a * b - 2.0 * b + 1.0)
        case 2:
            if not infs[0]:
                return abs(a - 2.0)
            if not infs[1]:
                return abs(b)
            return abs(g)
        case _:
            return math.inf


def solve_beta(a: float, g: float) -> float:
    """Solve the surface for the middle order given the outer two.

    Returns inf (projectively) when the linear equation degenerates with a
    nonzero constant term; raises Degenerate when the equation vanishes
    identically (a = g = 1).
    """
    if math.isinf(a) and math.isinf(g):
        return 0.0
    if math.isinf(a):
        return math.inf if g == 0.0 else 1.0 / g
    if math.isinf(g):
        return math.inf if a == 2.0 else 1.0 / (2.0 - a)
    num = a - g
    den = a * g - 2.0 * g + 1.0
    if abs(den) <= 1e-12:
        if abs(num) <= 1e-12:
            raise Degenerate(f"orders ({a}, {g}) leave the middle order free")
        return math.inf
    return num / den


def direction_of(b: float, g: float) -> str:
    return FORWARD if recip(b) + recip(g) <= 2.0 else REVERSE


def classify_case(a: float, b: float, g: float) -> int:
    """Case 1-6 of the constraint-surface analysis (0 when none applies)."""
    if surface_residual(a, b, g) > SURFACE_TOL:
        return UNCLASSIFIED
    if any(abs(x - 1.0) < 1e-12 for x in (a, b, g)):
        return UNCLASSIFIED
    hi, lo = max(b, g), min(b, g)
    if a > 1 and lo > 1 and a < 2 and a < lo:
        return 1
    if a < 1 and hi < 1 and 0.5 <= a and lo <= hi <= a and lo >= 0:
        return 2
    if a > 1 and hi > 1 and lo <= 0 and a <= hi:
        return 3
    if a < 1 and lo < 1 < hi and 0.5 <= a < lo and lo > 2.0 / 3.0:
        return 4
    if a > 1 and hi > 1 and 0 <= lo < 1 and hi < a:
        return 5
    if a < 1 and hi < 1 and lo <= 0 and 0.5 <= a <= hi:
        return 6
    return UNCLASSIFIED


@dataclass(frozen=True)
class RenyiTriple:
    alpha: float
    beta: float
    gamma: float
    residual: float
    direction: str
    case_id: int

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)


def make_triple(a: float, b: float, g: float) -> RenyiTriple:
    return RenyiTriple(a, b, g, surface_residual(a, b, g), direction_of(b, g), classify_case(a, b, g))


def _meets(value: float, bound) -> bool:
    if bound is None:
        return True
    lo, strict = bound
    return value > lo if strict else value >= lo


def admissible(triple: RenyiTriple, tag: str) -> bool:
    """Range admissibility of a surface triple for one inequality family."""
    if triple.residual > SURFACE_TOL:
        return False
    _, ra, rb, rg = THEOREM_ORDERS[tag]
    return _meets(triple.alpha, ra) and _meets(triple.beta, rb) and _meets(triple.gamma, rg)


def _far_from_one(*xs: float) -> bool:
    return all(math.isinf(x) or abs(x - 1.0) >= NEAR_ONE for x in xs)


def _draw_outer_pair(rng: np.random.Generator, mode: int):
    """(alpha, gamma) from per-mode boxes covering all surface cases."""
    if mode == 1:    # all orders > 1, forward
        a = rng.uniform(1.02, 1.9)
        g = a + rng.uniform(0.05, 2.5)
    elif mode == 2:  # all orders < 1, reverse
        a = rng.uniform(0.70, 0.98)
        g = rng.uniform(0.50, a - 0.02)
    elif mode == 3:  # gamma <= 0, forward
        a = rng.uniform(1.05, 3.0)
        g = rng.uniform(-3.0, -0.05)
    elif mode == 4:  # alpha, gamma < 1 < beta, forward
        a = rng.uniform(0.50, 0.94)
        g = rng.uniform(max(0.68, a + 0.02), 0.98)
    elif mode == 5:  # alpha, beta > 1 > gamma, reverse
        a = rng.uniform(1.5, 4.0)
        g = rng.uniform(0.10, 0.95)
    elif mode == 6:  # alpha, beta < 1, gamma <= 0, forward
        a = rng.uniform(0.50, 0.95)
        g = rng.uniform(-3.0, -0.05)
    elif mode == 7:  # small alpha, gamma > 1 (appendix ranges)
        a = rng.uniform(0.05, 0.47)
        g = rng.uniform(1.05, 3.0)
    else:            # small alpha, gamma < 1 (appendix ranges)
        a = rng.uniform(0.05, 0.47)
        g = rng.uniform(0.52, 0.95)
    return a, g


def sample_triple(rng: np.random.Generator, tag: str) -> RenyiTriple:
    """Draw a surface triple admissible for `tag`; both directions occur."""
    modes = THEOREM_ORDERS[tag][0]
    for _ in range(1000):
        mode = modes[rng.integers(len(modes))]
        a, g = _draw_outer_pair(rng, mode)
        try:
            b = solve_beta(a, g)
        except Degenerate:
            continue
        if math.isinf(b) or abs(b) > 12.0:
            continue
        t = make_triple(a, b, g)
        if not admissible(t, tag):
            continue
        if not _far_from_one(a, b, g):
            continue
        return t
    raise RuntimeError(f"could not sample a triple for {tag}")


def noncond_orders(rng: np.random.Generator, direction: str):
    """Sample (alpha, beta, gamma, delta) for the unconditioned comparison."""
    for _ in range(1000):
        if direction == FORWARD:
            a, b = rng.uniform(1.02, 2.5, size=2)
            g = rng.uniform(1.02, 2.5)
        else:
            a, b = rng.uniform(0.55, 0.98, size=2)
            g = rng.uniform(0.55, 0.98)
        t = (2.0 * b * a - b - a) / (b * a - 1.0)
        if not (t >= 0.5 and _far_from_one(t)):
            continue
        den = t * g - 1.0
        if abs(den) < 1e-9:
            continue
        d = (2.0 * t * g - t - g) / den
        if not (d >= 0.5 and _far_from_one(a, b, g, d)):
            continue
        if direction == FORWARD and not (d < min(a, b, g) and t < min(a, b)):
            continue
        if direction == REVERSE and not (d > max(a, b, g) and t > max(a, b)):
            continue
        return a, b, g, d
    raise RuntimeError("could not sample orders for the unconditioned comparison")


def sdg_condition(a: float, b: float, g: float, d: float):
    """(mu, admissible) for the state-dependent-bound uncertainty relation."""
    try:
        mu = solve_beta(a, g)
        mu2 = solve_beta(b, d)
    except Degenerate:
        return math.nan, False
    if math.isinf(mu) or math.isinf(mu2) or abs(mu - mu2) > 1e-9:
        return mu, False
    if not mu >= 0.5:
        return mu, False
    m = 2.0 - 1.0 / mu
    ok = (recip(d) <= m + 1e-12) and (m <= recip(g) + 1e-12)
    ok = ok and a >= 0.5 and g >= 0.5 and b > 0.5
    return mu, ok
