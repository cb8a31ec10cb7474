import copy
import tracemalloc

import numpy as np
import pytest

from renyi_lab.linalg import LayoutMismatch, NotHermitian, NotPositiveSemidefinite, dagger, partial_trace
from renyi_lab.states import (
    DensityOperator,
    MeasurementBasis,
    Pmf,
    cq_state,
    density_from_factor,
    measure,
    measurement_pmf,
    random_cq_state,
    random_density,
    random_density_factor,
    random_onb,
    random_pure,
    trial_rng,
)
from renyi_lab.uncertainty import suite_trial

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_random_pure_is_normalized():
    for i in range(10):
        v = random_pure(5, trial_rng(10, i))
        assert abs(np.vdot(v, v) - 1) < 1e-12


def test_random_density_invariants():
    rng = trial_rng(11, 0)
    rho = random_density(4, 2, rng)
    assert abs(np.trace(rho.mat) - 1) < 1e-10
    assert np.linalg.eigvalsh(rho.mat).min() > -1e-10


def test_rank_one_sample_is_pure():
    rho = random_density(3, 1, trial_rng(11, 1))
    assert np.real(np.trace(rho.mat @ rho.mat)) == pytest.approx(1.0, abs=1e-9)


def test_full_rank_sample_has_positive_spectrum():
    for i in range(10):
        rho = random_density(4, 4, trial_rng(11, 2 + i))
        assert np.linalg.eigvalsh(rho.mat).min() > 1e-6


@pytest.mark.parametrize("dim, rank", [(2, 1), (5, 1), (4, 2), (7, 3), (3, 3), (8, 8),
                                       (2, 5), (3, 16), (16, 4), (16, 16)])
def test_random_density_matches_traced_outer_product(dim, rank):
    # the oracle is the sampler's definition: trace the rank factor out of the
    # Haar pure state's projector; the two must agree to the last bit
    for seed in range(3):
        rng = trial_rng(15, 100 * seed + dim)
        v = random_pure(dim * rank, copy.deepcopy(rng))
        want = DensityOperator(partial_trace(np.outer(v, v.conj()), (dim, rank), keep=[0]), _l(dim))
        assert np.array_equal(random_density(dim, rank, rng).mat, want.mat)


@pytest.mark.parametrize("dim, rank", [(2, 1), (2, 2), (3, 5), (8, 1), (8, 8), (16, 3),
                                       (64, 1), (64, 8), (64, 64)])
def test_random_density_is_the_build_of_its_draw(dim, rank):
    # one sampler: the draw consumes the stream exactly as random_density does
    for seed in range(3):
        rng, again = trial_rng(17, 100 * seed + dim + rank), trial_rng(17, 100 * seed + dim + rank)
        dims = (8, 8) if dim == 64 else None
        want = random_density(dim, rank, rng, dims=dims)
        got = density_from_factor(random_density_factor(dim, rank, again), dims=dims)
        assert np.array_equal(want.mat, got.mat) and want.layout == got.layout
        assert rng.random() == again.random()


# the next draw of a closed-suite trial's stream, recorded before these suites
# left their unread rho_AB and tau_B unbuilt: (tag, dims, seed) -> rng.random()
CLOSED_TRIAL_NEXT_DRAW = {
    ("rmu", (2, 2), 5): 0.7192448779755543,
    ("rmu", (2, 2), 6): 0.5390656775980839,
    ("rmu", (3, 2), 5): 0.1628415964972567,
    ("rmu", (3, 2), 6): 0.660369836444989,
    ("rmu", (8, 8), 5): 0.729932675009809,
    ("rmu", (8, 8), 6): 0.12558444702521532,
    ("const-comp", (2, 2), 5): 0.8420317762115318,
    ("const-comp", (2, 2), 6): 0.6367717476232969,
    ("const-comp", (3, 2), 5): 0.5646423034374116,
    ("const-comp", (3, 2), 6): 0.7187864603022917,
    ("const-comp", (8, 8), 5): 0.4099777228573386,
    ("const-comp", (8, 8), 6): 0.4440962511784414,
    ("hall-classical", (2, 2), 5): 0.7114593745340658,
    ("hall-classical", (2, 2), 6): 0.4786147355714615,
    ("hall-classical", (3, 2), 5): 0.6654124114412981,
    ("hall-classical", (3, 2), 6): 0.8348155619368899,
    ("hall-classical", (8, 8), 5): 0.3315453978691645,
    ("hall-classical", (8, 8), 6): 0.9794532237860709,
}


@pytest.mark.parametrize("tag, dims, seed", list(CLOSED_TRIAL_NEXT_DRAW))
def test_closed_suite_trials_consume_their_stream_as_before(tag, dims, seed):
    rng = trial_rng(seed, 1)
    suite_trial(tag, rng, dims, 1e-9, seed)
    assert rng.random() == CLOSED_TRIAL_NEXT_DRAW[(tag, dims, seed)]


def test_random_density_memory_is_linear_in_dim_times_rank():
    # the (64*64)^2 outer product alone would take 268 MB
    rng = trial_rng(15, 1)
    tracemalloc.start()
    try:
        random_density(64, 64, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fixed_seed_reproducibility():
    a = random_density(4, 3, trial_rng(12, 7)).mat
    b = random_density(4, 3, trial_rng(12, 7)).mat
    assert np.array_equal(a, b)
    c = random_density(4, 3, trial_rng(12, 8)).mat
    assert not np.array_equal(a, c)


def test_trial_rng_order_independent():
    # the stream for trial i does not depend on other trials having run
    vals = [trial_rng(99, i).standard_normal() for i in (3, 1, 2)]
    assert vals[1] == trial_rng(99, 1).standard_normal()


def test_random_onb_is_orthonormal():
    b = random_onb(4, trial_rng(13, 0))
    assert np.abs(dagger(b.vectors) @ b.vectors - np.eye(4)).max() <= 1e-10


def test_cq_state_marginal():
    rng = trial_rng(13, 1)
    p = rng.dirichlet(np.ones(3))
    blocks = [random_density(2, 2, rng).mat for _ in range(3)]
    rho = cq_state(p, blocks)
    marg = partial_trace(rho.mat, (3, 2), keep=[1])
    expected = sum(p[x] * blocks[x] for x in range(3))
    assert np.abs(marg - expected).max() < 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (8, 8), (4, 16), (16, 4)])
def test_random_cq_state_matches_the_dense_construction(dims, monkeypatch):
    # the dense oracle checks each block as a DensityOperator, then the
    # assembled matrix: one draw, two rebuilds.  Its own rebuild moves its
    # input by up to 1.1e-15 at (2, 2) and (3, 2), and the two differ by up to
    # 1.7e-15 in 250 draws there, so they agree to rounding, not to the bit
    dim, registers = dims
    checked = []
    monkeypatch.setattr(DensityOperator, "_direct_sum",
                        lambda b, _check=DensityOperator._direct_sum: checked.append(b) or _check(b))
    for i in range(20):
        rng, again = trial_rng(18, 100 * i + dim), trial_rng(18, 100 * i + dim)
        rho = random_cq_state(dim, registers, rng)
        p = again.dirichlet(np.ones(registers))
        draws = copy.deepcopy(again)
        g = [random_density_factor(dim, dim, draws) for _ in range(registers)]
        blocks = [random_density(dim, dim, again).mat for _ in range(registers)]
        dense = np.einsum("y,yab,yz->aybz", p, blocks, np.eye(registers)).reshape(dim * registers, -1)
        want = DensityOperator(dense, _l(dim, registers))
        assert rho.layout == want.layout
        assert np.abs(rho.mat - want.mat).max() <= 4e-15, i
        assert rng.random() == again.random()
        # the blocks reach the check summed as density_from_factor sums them
        raw = [sum((np.outer(f[:, k], f[:, k].conj()) for k in range(dim)),
                   np.zeros((dim, dim), dtype=complex)) for f in g]
        assert np.array_equal(checked.pop(), p[:, None, None] * np.array(raw))


def _register_blocks(*diagonals):
    return np.array([np.diag(d).astype(complex) for d in diagonals])


def test_direct_sum_is_checked_through_its_blocks():
    blocks = _register_blocks([0.5, 0.0], [0.3, 0.2])
    blocks[1, 0, 1], blocks[1, 1, 0] = 0.1j, -0.1j
    rho = DensityOperator._direct_sum(blocks)
    assert rho.layout.dims == (2, 2)
    # the register second: sum_y B_y (x) |y><y|
    dense = sum(np.kron(b, np.outer(e, e)) for b, e in zip(blocks, np.eye(2)))
    assert np.abs(rho.mat - dense).max() <= 1e-15
    # a block eigenvalue inside the clamp band is zeroed, one below it raises
    clamped = DensityOperator._direct_sum(_register_blocks([0.5, -1e-12], [0.25, 0.25 + 1e-12]))
    assert clamped.mat[2, 2] == 0.0
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator._direct_sum(_register_blocks([0.5, 0.0], [0.5 + 1e-7, -1e-7]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator._direct_sum(_register_blocks([0.5, 0.0], [0.25, 0.26]))
    skew = _register_blocks([0.5, 0.0], [0.25, 0.25])
    skew[1, 0, 1] = 0.1
    with pytest.raises(NotHermitian):
        DensityOperator._direct_sum(skew)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Pmf(np.array([1.2, -0.2]))


class TestMeasure:
    def test_plus_state_in_computational(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus.conj()), layout=_l(2))
        out = measure(rho, MeasurementBasis(np.eye(2, dtype=complex)))
        assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12

    def test_eigenbasis_is_fixed_point(self):
        rng = trial_rng(14, 0)
        rho = random_density(3, 3, rng)
        vals, vecs = np.linalg.eigh(rho.mat)
        out = measure(rho, MeasurementBasis(vecs))
        assert np.abs(out.mat - rho.mat).max() < 1e-10

    def test_bell_state_measured_on_a(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityOperator(np.outer(bell, bell.conj()), layout=_l(2, 2))
        out = measure(rho, MeasurementBasis(np.eye(2, dtype=complex)), subsystem=0)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.abs(out.mat - expected).max() < 1e-12

    def test_idempotent_and_trace_preserving(self):
        rng = trial_rng(14, 1)
        rho = random_density(4, 4, rng, dims=(2, 2))
        basis = random_onb(2, rng)
        once = measure(rho, basis, subsystem=1)
        twice = measure(once, basis, subsystem=1)
        assert np.abs(once.mat - twice.mat).max() < 1e-10
        assert abs(np.trace(once.mat) - 1) < 1e-12

    def test_dimension_mismatch(self):
        rho = random_density(4, 4, trial_rng(14, 2), dims=(2, 2))
        with pytest.raises(LayoutMismatch):
            measure(rho, MeasurementBasis(np.eye(3, dtype=complex)), subsystem=0)

    def test_measurement_pmf(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus.conj()), layout=_l(2))
        p = measurement_pmf(rho, MeasurementBasis(HADAMARD))
        assert np.allclose(p.probabilities, [1.0, 0.0], atol=1e-12)


def _l(*dims):
    from renyi_lab.linalg import SystemLayout
    return SystemLayout(tuple(dims))
