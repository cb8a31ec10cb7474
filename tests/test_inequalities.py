import functools
import math

import numpy as np
import pytest

from renyi_lab import report
from renyi_lab.entropies import ALPHA_ONE_WINDOW, renyi_entropy, sandwiched_divergence
from renyi_lab.inequalities import SUITES, _entropy_weight_term, _rank_deficient_pair, run_suite
from renyi_lab.linalg import SystemLayout
from renyi_lab.orders import FORWARD, REVERSE, make_triple
from renyi_lab.report import Instance, finish
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


# the next draw of trial 1's stream after the suite's draw, (tag, dims, seed)
# -> rng.random(), recorded from the trial functions that drew and evaluated
# in one pass, before the draw was split from the sides
TRIAL_NEXT_DRAW = {
    ("general", (2, 2), 5): 0.6428029822607796,
    ("general", (3, 3), 5): 0.8442384102935465,
    ("decomp", (2, 2), 5): 0.9894305565437673,
    ("decomp", (3, 3), 5): 0.22493835060910738,
    ("bchain", (2, 2), 5): 0.4811853954398059,
    ("bchain", (3, 3), 5): 0.9266481263263098,
    ("bchain-alt", (2, 2), 5): 0.4811853954398059,
    ("bchain-alt", (3, 3), 5): 0.9266481263263098,
    ("chain", (2, 2, 2), 5): 0.07191213326212065,
    ("chain", (3, 3, 3), 5): 0.8841797251273988,
    ("chain-dup", (2, 2, 2), 5): 0.07191213326212065,
    ("chain-dup", (3, 3, 3), 5): 0.8841797251273988,
    ("decomp-dup", (2, 2), 5): 0.9894305565437673,
    ("decomp-dup", (3, 3), 5): 0.22493835060910738,
    ("noncond", (2, 2), 5): 0.08758140266887904,
    ("noncond", (3, 3), 5): 0.6849721774364372,
    ("rmu", (2, 2), 5): 0.7192448779755543,
    ("rmu", (2, 2), 6): 0.5390656775980839,
    ("rmu", (3, 2), 5): 0.1628415964972567,
    ("rmu", (3, 2), 6): 0.660369836444989,
    ("rmu", (3, 3), 5): 0.3505202888051655,
    ("rmu", (8, 8), 5): 0.729932675009809,
    ("rmu", (8, 8), 6): 0.12558444702521532,
    ("gbur", (2, 2), 5): 0.07786497936029901,
    ("gbur", (3, 3), 5): 0.9187862846386987,
    ("sdgbur", (2, 2), 5): 0.2668192302482669,
    ("sdgbur", (3, 3), 5): 0.8960511220960631,
    ("sigbur", (2, 2), 5): 0.2668192302482669,
    ("sigbur", (3, 3), 5): 0.8960511220960631,
    ("marcos", (2, 2), 5): 0.8944499195930573,
    ("marcos", (3, 3), 5): 0.6637774212482794,
    ("result2", (2, 2), 5): 0.07786497936029901,
    ("result2", (3, 3), 5): 0.9187862846386987,
    ("res2c", (2, 2), 5): 0.06045883066315172,
    ("res2c", (3, 3), 5): 0.6338004777096152,
    ("ier", (2, 2), 5): 0.8420317762115318,
    ("ier", (3, 3), 5): 0.9487208854650226,
    ("iier-opt", (2, 2), 5): 0.8944499195930573,
    ("iier-opt", (3, 3), 5): 0.6380479625875958,
    ("const-comp", (2, 2), 5): 0.8420317762115318,
    ("const-comp", (2, 2), 6): 0.6367717476232969,
    ("const-comp", (3, 2), 5): 0.5646423034374116,
    ("const-comp", (3, 2), 6): 0.7187864603022917,
    ("const-comp", (3, 3), 5): 0.6009582879961257,
    ("const-comp", (8, 8), 5): 0.4099777228573386,
    ("const-comp", (8, 8), 6): 0.4440962511784414,
    ("hall-classical", (2, 2), 5): 0.7114593745340658,
    ("hall-classical", (2, 2), 6): 0.4786147355714615,
    ("hall-classical", (3, 2), 5): 0.6654124114412981,
    ("hall-classical", (3, 2), 6): 0.8348155619368899,
    ("hall-classical", (3, 3), 5): 0.48846772737261435,
    ("hall-classical", (8, 8), 5): 0.3315453978691645,
    ("hall-classical", (8, 8), 6): 0.9794532237860709,
}


@pytest.mark.parametrize("tag, dims, seed", list(TRIAL_NEXT_DRAW))
def test_draws_consume_their_stream_as_before(tag, dims, seed):
    draw, _, arity = SUITES[tag]
    assert len(dims) == arity
    rng = trial_rng(seed, 1)
    draw(tag, rng, dims)
    assert rng.random() == TRIAL_NEXT_DRAW[(tag, dims, seed)]


def test_every_tag_is_pinned_at_qubit_and_qutrit_dims():
    pinned = {(tag, dims) for tag, dims, _ in TRIAL_NEXT_DRAW}
    for tag, (_, _, arity) in SUITES.items():
        assert {(tag, (2,) * arity), (tag, (3,) * arity)} <= pinned, tag


def test_a_trial_is_the_finish_of_its_sides():
    # sides read no rng: evaluated twice, they give the same bits, and the
    # report is run_suite's
    for tag, (draw, sides, arity) in SUITES.items():
        dims = (2, 2, 2)[:arity]
        inst = draw(tag, trial_rng(9, 0), dims)
        small, big, solves = sides(inst)
        assert sides(inst)[:2] == (small, big), tag
        (want,), _ = run_suite(tag, 1, dims, 9)
        assert repr(finish(inst, 0, small, big, solves, report.BASE_TOL)) == repr(want), tag


# ---------------------------------------------------------------------------
# the divergence sides at hand-built instances
# ---------------------------------------------------------------------------

def _product(dims, seed):
    """A non-flat full-rank product state and its factors."""
    rng = trial_rng(seed, len(dims))
    factors = [random_density(d, d, rng).mat for d in dims]
    return DensityOperator(functools.reduce(np.kron, factors), SystemLayout(dims)), factors


def _forward(inst, small, big):
    return (big, small) if inst.direction == REVERSE else (small, big)


# triples on the surface a b g - 2 b g - a + b + g = 0, in both directions
SURFACE = [make_triple(*t) for t in ((4.0 / 3.0, 2.0, 2.0), (0.75, 0.6, 0.6), (3.0, 1.5, 0.6))]


def test_surface_triples_cover_both_directions():
    assert max(t.residual for t in SURFACE) <= 1e-12
    assert {t.direction for t in SURFACE} == {FORWARD, REVERSE}


@pytest.mark.parametrize("triple", SURFACE)
def test_bchain_sides_on_product_states(triple):
    # H^up_b(A|B) of rho_A (x) rho_B is H_b(A), and H_a is additive
    (a, b, g), direction = triple.as_tuple(), triple.direction
    for seed in range(3):
        rho, (ra, rb) = _product((2, 3), seed)
        inst = Instance("bchain", (2, 3), a, b, g, None, direction, rho)
        small, big, _ = SUITES["bchain"][1](inst)
        want_small = renyi_entropy(ra, b) + renyi_entropy(rb, g)
        want_big = renyi_entropy(ra, a) + renyi_entropy(rb, a)
        assert _forward(inst, small, big) == pytest.approx((want_small, want_big), abs=1e-9)


@pytest.mark.parametrize("orders, direction", [((0.8, 1.5, 0.7, 0.6), FORWARD),
                                               ((0.8, 1.5, 0.7, 2.5), REVERSE)])
def test_noncond_sides_on_product_states(orders, direction):
    # I^down_b(A:B) vanishes on a product state, where H_d(AB) = H_d(A) + H_d(B)
    a, b, g, d = orders
    for seed in range(3):
        rho, (ra, rb) = _product((2, 3), seed)
        inst = Instance("noncond", (2, 3), *orders, direction, rho)
        small, big, _ = SUITES["noncond"][1](inst)
        want_small = (renyi_entropy(ra, a) - renyi_entropy(ra, d)
                      + renyi_entropy(rb, g) - renyi_entropy(rb, d))
        assert _forward(inst, small, big) == pytest.approx((want_small, 0.0), abs=1e-9)


@pytest.mark.parametrize("triple", SURFACE)
def test_chain_sides_on_product_states(triple):
    # H^up_b(A|BC) = H_b(A), H_g(rho_BC||tau_C) = H_g(B) - D_g(rho_C||tau_C),
    # H_a(rho_ABC||tau_C) = H_a(A) + H_a(B) - D_a(rho_C||tau_C)
    (a, b, g), direction = triple.as_tuple(), triple.direction
    for seed in range(3):
        rho, (ra, rb, rc) = _product((2, 2, 3), seed)
        tau = 0.7 * random_density(3, 3, trial_rng(seed, 9)).mat
        inst = Instance("chain", (2, 2, 3), a, b, g, None, direction, rho, (tau,))
        small, big, _ = SUITES["chain"][1](inst)
        want_small = renyi_entropy(ra, b) + renyi_entropy(rb, g) - sandwiched_divergence(rc, tau, g)
        want_big = renyi_entropy(ra, a) + renyi_entropy(rb, a) - sandwiched_divergence(rc, tau, a)
        assert _forward(inst, small, big) == pytest.approx((want_small, want_big), abs=1e-9)


@pytest.mark.parametrize("triple", SURFACE)
def test_decomp_sides_on_product_states(triple):
    # H_a(rho||tau_A) = H_a(B) - D_a(rho_A||tau_A), and I_b(rho||tau_A) = D_b(rho_A||tau_A)
    (a, b, g), direction = triple.as_tuple(), triple.direction
    for seed in range(3):
        rho, (ra, rb) = _product((3, 2), seed)
        tau = 1.3 * random_density(3, 3, trial_rng(seed, 8)).mat
        inst = Instance("decomp", (3, 2), a, b, g, None, direction, rho, (tau,))
        small, big, _ = SUITES["decomp"][1](inst)
        want_small = renyi_entropy(rb, g) - renyi_entropy(rb, a) + sandwiched_divergence(ra, tau, a)
        want_big = sandwiched_divergence(ra, tau, b)
        assert _forward(inst, small, big) == pytest.approx((want_small, want_big), abs=1e-9)


# off the surface, labelled forward: (4, 1/2, 1/2) puts the smaller orders on
# the side the relation bounds; noncond takes delta = 4 above the other orders
OFF_SURFACE = (4.0, 0.5, 0.5, None)


def _off_surface_instance(tag, seed):
    dims = (2, 2, 2) if tag == "chain" else (2, 3)
    rho, factors = _product(dims, seed)
    weights = ((factors[1], np.eye(2) / 2) if tag == "general" else (factors[0],) if tag == "decomp"
               else (factors[2],) if tag == "chain" else ())
    orders = (0.5, 1.0, 0.5, 4.0) if tag == "noncond" else OFF_SURFACE
    return Instance(tag, dims, *orders, FORWARD, rho, weights)


@pytest.mark.parametrize("tag", ["general", "decomp", "bchain", "chain", "noncond"])
def test_each_divergence_shape_can_fail(tag):
    # the same sides at the sampled orders pass (the golden sweeps); off the
    # surface each relation fails on a non-flat product state
    for seed in range(3):
        inst = _off_surface_instance(tag, seed)
        rep = finish(inst, 0, *SUITES[tag][1](inst), report.BASE_TOL)
        assert rep.verdict == report.FAIL and rep.gap < -1e-3, (seed, rep.gap)
