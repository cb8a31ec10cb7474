import numpy as np
import pytest

from renyi_lab.linalg import (
    InvalidOrder,
    LayoutMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    SystemLayout,
    check_hermitian,
    congruence_eigvalsh,
    dagger,
    frac_power,
    partial_trace,
    psd_eigvalsh,
    purify,
    schatten_norm,
    _psd_policy,
)
from renyi_lab.states import random_density, random_pure, trial_rng


def rand_herm(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def rand_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestFracPower:
    def test_sqrt(self):
        assert np.allclose(frac_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]))

    def test_pseudoinverse_on_support(self):
        assert np.allclose(frac_power(np.diag([2.0, 0.0]), -1.0), np.diag([0.5, 0.0]))

    def test_exponent_additivity(self):
        for i in range(10):
            rng = trial_rng(2, i)
            rho = random_density(2, 2, rng).mat
            a, b = rng.uniform(-1, 1, size=2)
            lhs = frac_power(rho, a) @ frac_power(rho, b)
            assert np.abs(lhs - frac_power(rho, a + b)).max() < 1e-10

    def test_clamps_small_negatives(self):
        out = frac_power(np.diag([1.0, -5e-11]), 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_rejects_large_negatives(self):
        with pytest.raises(NotPositiveSemidefinite):
            frac_power(np.diag([1.0, -1e-6]), 0.5)

    def test_cutoff_applies_to_positive_powers_too(self):
        out = frac_power(np.diag([1.0, 1e-15]), 0.5)
        assert out[1, 1] == 0.0

    # the same rules on a (k, d, d) stack, with each matrix's own lambda_max

    def test_non_finite_input_is_refused(self):
        # NaN compares false, so a check written as `x > tol` would pass it
        for bad in (np.nan, np.inf):
            with pytest.raises(NotHermitian), np.errstate(invalid="ignore"):
                check_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(NotHermitian), np.errstate(invalid="ignore"):
                check_hermitian(np.array([[[1.0, bad], [bad, 1.0]]]))
        with pytest.raises(NotPositiveSemidefinite):
            _psd_policy(np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(NotPositiveSemidefinite):
            _psd_policy(np.array([[0.0, 1.0], [np.nan, 1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(NotPositiveSemidefinite):
            _psd_policy(np.array([-1e-12, 1.0]), np.nan)

    def test_stack_matches_matrices(self):
        rng = trial_rng(2, 50)
        stack = np.array([random_density(3, int(r), rng).mat for r in (1, 2, 3)])
        for a in (-1.0, 0.0, 0.5, 2.0):
            out = frac_power(stack, a)
            for k in range(3):
                assert np.abs(out[k] - frac_power(stack[k], a)).max() < 1e-12

    def test_stack_clamps_small_negatives_per_matrix(self):
        # -5e-9 is inside the band of the matrix with lambda_max = 100 only
        out = frac_power(np.array([np.diag([1.0, -5e-11]), np.diag([100.0, -5e-9])]), 0.5)
        assert np.allclose(out, [np.diag([1.0, 0.0]), np.diag([10.0, 0.0])])

    def test_stack_rejects_one_bad_matrix(self):
        with pytest.raises(NotPositiveSemidefinite):
            frac_power(np.array([np.diag([1.0, 0.5]), np.diag([1.0, -1e-6])]), 0.5)
        # another matrix's larger lambda_max does not widen the band
        with pytest.raises(NotPositiveSemidefinite):
            frac_power(np.array([np.diag([1.0, -5e-9]), np.diag([100.0, 1.0])]), 0.5)

    def test_stack_cutoff_per_matrix(self):
        # 1e-15 is below the cutoff next to 1, above it next to 1e-6
        out = frac_power(np.array([np.diag([1.0, 1e-15]), np.diag([1e-6, 1e-15])]), -1.0)
        assert out[0, 1, 1] == 0.0
        assert out[1, 1, 1] == pytest.approx(1e15)
        assert out[1, 0, 0] == pytest.approx(1e6)

    def test_congruence_band_follows_the_factor_scale(self):
        # a weight floored at 1e-11 and raised to -1/2 turns rounding in a
        # rank-one rho on its large eigenspace into +-1e-6 eigenvalues of
        # w rho w^dagger, whose top eigenvalue is 2
        rng = trial_rng(2, 60)
        u = rand_unitary(4, rng)
        w = frac_power(u @ np.diag([0.5, 0.5, 1e-11, 1e-11]) @ dagger(u), -0.5)
        psi = u[:, :2] @ random_pure(2, rng)
        rho = np.outer(psi, psi.conj())
        with pytest.raises(NotPositiveSemidefinite):
            psd_eigvalsh(w @ rho @ dagger(w))
        lam, live = congruence_eigvalsh(w, rho)
        assert lam.min() == 0.0 and lam.max() == pytest.approx(2.0, rel=1e-6)
        assert live.sum() >= 1
        with pytest.raises(NotPositiveSemidefinite):
            congruence_eigvalsh(np.eye(2), np.diag([1.0, -1e-6]))


class TestSchattenNorm:
    def test_frobenius(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_unitary_sup_norm(self):
        u = rand_unitary(3, trial_rng(3, 0))
        assert schatten_norm(u, np.inf) == pytest.approx(1.0)

    def test_density_root_has_unit_norm(self):
        for p in (0.5, 1.0, 2.0, 3.7):
            rho = random_density(4, 4, trial_rng(3, 1)).mat
            assert schatten_norm(frac_power(rho, 1.0 / p), p) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            schatten_norm(np.eye(2), 0.0)
        with pytest.raises(InvalidOrder):
            schatten_norm(np.eye(2), -1.0)

    def test_unitary_invariance(self):
        rng = trial_rng(3, 2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, v = rand_unitary(4, rng), rand_unitary(4, rng)
        for p in (0.5, 1.0, 2.0, 3.0, np.inf):
            assert schatten_norm(u @ m @ v, p) == pytest.approx(schatten_norm(m, p), abs=1e-9)

    def test_fold_identity(self):
        rng = trial_rng(3, 3)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        for p in (0.5, 1.0, 2.0, 4.0):
            assert schatten_norm(dagger(m) @ m, p) == pytest.approx(schatten_norm(m, 2 * p) ** 2, rel=1e-9)


class TestPartialTraceTensor:
    def test_product_rule(self):
        rng = trial_rng(5, 0)
        k, l = rand_herm(2, rng), rand_herm(3, rng)
        out = partial_trace(np.kron(k, l), (2, 3), keep=[0])
        assert np.abs(out - np.trace(l) * k).max() < 1e-12
        out_b = partial_trace(np.kron(k, l), (2, 3), keep=[1])
        assert np.abs(out_b - np.trace(k) * l).max() < 1e-12

    def test_bell_marginal(self):
        rho = np.outer(BELL, BELL.conj())
        assert np.abs(partial_trace(rho, (2, 2), keep=[0]) - np.eye(2) / 2).max() < 1e-12

    def test_empty_keep_is_full_trace(self):
        rng = trial_rng(5, 1)
        m = rand_herm(4, rng)
        out = partial_trace(m, (2, 2), keep=[])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.trace(m))

    def test_trace_preserved_and_linear(self):
        rng = trial_rng(5, 2)
        a, b = rand_herm(8, rng), rand_herm(8, rng)
        out = partial_trace(2.0 * a + b, (2, 2, 2), keep=[0, 2])
        ref = 2.0 * partial_trace(a, (2, 2, 2), [0, 2]) + partial_trace(b, (2, 2, 2), [0, 2])
        assert np.abs(out - ref).max() < 1e-12
        assert np.trace(out) == pytest.approx(np.trace(2.0 * a + b))

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatch):
            partial_trace(np.eye(4), (2, 3), keep=[0])


class TestPurify:
    def test_recovers_state_and_rank(self):
        for rank in (1, 2, 3, 4):
            rho = random_density(4, rank, trial_rng(7, rank)).mat
            v, layout = purify(rho)
            assert layout.dims[1] == np.linalg.matrix_rank(rho, tol=1e-10)
            rec = partial_trace(np.outer(v, v.conj()), layout, [0])
            assert np.abs(rec - rho).max() < 1e-10


def test_purity_criterion():
    for i in range(10):
        rng = trial_rng(8, i)
        rank = int(rng.integers(1, 5))
        rho = random_density(4, rank, rng).mat
        purity = float(np.real(np.trace(rho @ rho)))
        assert purity <= 1 + 1e-10
        assert (abs(purity - 1) < 1e-9) == (rank == 1)


def test_layout_validation():
    with pytest.raises(LayoutMismatch):
        SystemLayout((2, 0))
    SystemLayout((2, 3)).check(6)
    with pytest.raises(LayoutMismatch):
        SystemLayout((2, 3)).check(5)
