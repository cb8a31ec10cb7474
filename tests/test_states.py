import copy
import tracemalloc

import numpy as np
import pytest

from renyi_lab.linalg import LayoutMismatch, NotHermitian, dagger, partial_trace
from renyi_lab.states import (
    DensityOperator,
    MeasurementBasis,
    Pmf,
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
    # Haar pure state's projector and check it by its spectrum.  The sampler
    # forms G G^dagger as one product, so the two sum in different orders;
    # they differ by at most 8.9e-16 per element over 215 draws up to (64, 64)
    for seed in range(3):
        rng = trial_rng(15, 100 * seed + dim)
        v = random_pure(dim * rank, copy.deepcopy(rng))
        want = DensityOperator(partial_trace(np.outer(v, v.conj()), (dim, rank), keep=[0]), _l(dim))
        assert np.abs(random_density(dim, rank, rng).mat - want.mat).max() <= 4e-15


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
    # tracing the register out of sum_y p(y) rho_y (x) |y><y| leaves sum_y p(y) rho_y
    rng, again = trial_rng(13, 1), trial_rng(13, 1)
    rho = random_cq_state(2, 3, rng)
    p = again.dirichlet(np.ones(3))
    blocks = [random_density(2, 2, again).mat for _ in range(3)]
    marg = partial_trace(rho.mat, (2, 3), keep=[0])
    expected = sum(p[x] * blocks[x] for x in range(3))
    assert np.abs(marg - expected).max() < 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (8, 8), (4, 16), (16, 4)])
def test_random_cq_state_matches_the_dense_construction(dims):
    # the dense oracle checks each block as a DensityOperator, then the
    # assembled matrix: one draw, two rebuilds.  Its own rebuild moves its
    # input by up to 1.1e-15 at (2, 2) and (3, 2), so the two agree to
    # rounding, not to the bit
    dim, registers = dims
    for i in range(20):
        rng, again = trial_rng(18, 100 * i + dim), trial_rng(18, 100 * i + dim)
        rho = random_cq_state(dim, registers, rng)
        p = again.dirichlet(np.ones(registers))
        blocks = [random_density(dim, dim, again).mat for _ in range(registers)]
        dense = np.einsum("y,yab,yz->aybz", p, blocks, np.eye(registers)).reshape(dim * registers, -1)
        want = DensityOperator(dense, _l(dim, registers))
        assert rho.layout == want.layout
        assert np.abs(rho.mat - want.mat).max() <= 4e-15, i
        assert rng.random() == again.random()


def test_sampled_states_are_not_decomposed(monkeypatch):
    # a Gram G G^dagger is PSD by construction: no eigh or eigvalsh at any size
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
            calls.append(np.shape(a))
            return _decompose(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rho = random_density(64, 64, trial_rng(19, 0), dims=(8, 8))
    cq = random_cq_state(8, 8, trial_rng(19, 1))
    assert calls == []
    assert rho.layout.dims == (8, 8) and cq.layout.dims == (8, 8)
    assert abs(np.trace(rho.mat) - 1) < 1e-12 and abs(np.trace(cq.mat) - 1) < 1e-12


def test_built_states_are_checked_by_their_trace():
    g = random_density_factor(4, 3, trial_rng(19, 2))
    rho = DensityOperator._built(g @ dagger(g), _l(2, 2))
    # the Hermitian part, exactly, and no rebuild: the product itself to rounding
    assert np.array_equal(rho.mat, dagger(rho.mat)) and rho.layout.dims == (2, 2)
    assert np.abs(rho.mat - g @ dagger(g)).max() <= 1e-16
    with pytest.raises(ValueError, match="trace"):
        DensityOperator._built(rho.mat + 1e-9 * np.diag([1, 0, 0, 0]), _l(2, 2))
    with pytest.raises(LayoutMismatch):
        DensityOperator._built(rho.mat, _l(3))
    for bad in (np.nan, np.inf):
        g_bad = g.copy()
        g_bad[1, 2] = bad
        with pytest.raises(ValueError, match="trace"), np.errstate(invalid="ignore"):
            density_from_factor(g_bad)


def test_non_finite_inputs_are_refused():
    nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(NotHermitian):
        DensityOperator(np.full((2, 2), np.nan), _l(2))
    with pytest.raises(NotHermitian):
        DensityOperator(nan, _l(2))
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    for p in ([np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            Pmf(np.array(p))


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
