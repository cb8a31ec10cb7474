import math

import numpy as np
import pytest

from renyi_lab.linalg import (
    InvalidOrder,
    LayoutMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    SystemLayout,
    check_hermitian,
    dagger,
    frac_power,
    kron_eigh,
    partial_trace,
    partial_trace_factor,
    psd_eigh,
    psd_eigvalsh,
    purify,
    sandwich_spectrum,
    schatten_norm,
    _psd_policy,
)
from renyi_lab.states import random_density, random_density_factor, random_pure, trial_rng


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



class TestSandwichSpectrum:
    @staticmethod
    def _dense(sigma, c, g):
        """The eigenvalues of w rho w, w = sigma^c on supp sigma, of the n x n product."""
        w = frac_power(sigma, c)
        return np.linalg.eigvalsh(w @ g @ dagger(g) @ dagger(w))

    def test_matches_the_dense_sandwich(self):
        # min(|supp sigma|, r) values, the largest ones of the dense product;
        # the rest of its spectrum is rounding around 0
        for i in range(20):
            rng = trial_rng(7, i)
            n = int(rng.integers(2, 7))
            sigma = random_density(n, int(rng.integers(1, n + 1)), rng).mat
            g = random_density_factor(n, int(rng.integers(1, n + 1)), rng)
            weight = psd_eigh(sigma)
            for c in (-0.5, -0.25, 0.25, 1.0):
                got = sandwich_spectrum(weight, c, g)
                dense = self._dense(sigma, c, g)
                assert len(got) == min(weight[2].sum(), g.shape[1])
                assert np.all(np.diff(got) >= 0.0) and got.min() >= 0.0
                assert np.abs(got - dense[len(dense) - len(got):]).max() <= 1e-12 * dense[-1], (i, c)
                assert np.abs(dense[:len(dense) - len(got)]).max(initial=0.0) <= 1e-12 * dense[-1]

    def test_stack_matches_matrices(self):
        rng = trial_rng(7, 50)
        weight = kron_eigh([2, psd_eigh(random_density(2, 2, rng).mat)])
        stack = np.stack([random_density_factor(4, 3, rng) for _ in range(5)])
        got = sandwich_spectrum(weight, -0.3, stack)
        assert got.shape == (5, 3)
        for k in range(5):
            assert np.abs(got[k] - sandwich_spectrum(weight, -0.3, stack[k])).max() <= 1e-15

    def test_floored_weight_at_a_negative_power_stays_nonnegative(self):
        # a weight floored at 1e-11 and raised to -1/2 turns rounding in a
        # rank-one rho on its large eigenspace into +-1e-6 eigenvalues of the
        # dense w rho w^dagger, whose top eigenvalue is 2; squared singular
        # values are nonnegative and small there
        rng = trial_rng(2, 60)
        u = rand_unitary(4, rng)
        weight = (np.array([1e-11, 1e-11, 0.5, 0.5]), u[:, [2, 3, 0, 1]], np.ones(4, dtype=bool))
        psi = u[:, :2] @ random_pure(2, rng)
        w = frac_power(u @ np.diag([0.5, 0.5, 1e-11, 1e-11]) @ dagger(u), -0.5)
        with pytest.raises(NotPositiveSemidefinite):
            psd_eigvalsh(w @ np.outer(psi, psi.conj()) @ dagger(w))
        lam = sandwich_spectrum(weight, -0.5, psi[:, None])
        assert lam.shape == (1,) and lam[0] == pytest.approx(2.0, rel=1e-6)

    def test_small_values_keep_their_relative_accuracy_on_a_graded_weight(self):
        # 2 x 2: s_min^2 = det^2 / s_max^2 exactly, with s_max^2 from the
        # Frobenius norm; w^c spans 1e-10, and rows taken in increasing order
        # of w^c lose about 1e-5 of s_min^2 here
        for i in range(50):
            rng = trial_rng(5, i)
            u = rand_unitary(2, rng)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            weight = (np.array([1e-10, 0.7]), u, np.ones(2, dtype=bool))
            x = weight[0][:, None] * (dagger(u) @ g)
            det, frob = abs(np.linalg.det(x)), np.linalg.norm(x) ** 2
            want = det ** 2 / ((frob + math.sqrt(frob ** 2 - 4.0 * det ** 2)) / 2.0)
            assert sandwich_spectrum(weight, 1.0, g)[0] == pytest.approx(want, rel=1e-12), i


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

    @pytest.mark.parametrize("dims, keep", [((2, 3), [0]), ((2, 3), [1]), ((3, 2, 2), [1, 2]),
                                            ((3, 2, 2), [0, 2]), ((2, 2, 3), [1]), ((2, 3), [0, 1])])
    def test_factor_of_the_partial_trace(self, dims, keep):
        # the traced systems move into the columns: d_keep rows, (d_rest r) columns
        rng = trial_rng(5, 3)
        g = random_density_factor(int(np.prod(dims)), 3, rng)
        f = partial_trace_factor(g, dims, keep)
        assert f.shape == (int(np.prod([dims[k] for k in keep])), g.size // len(f))
        assert np.abs(f @ dagger(f) - partial_trace(g @ dagger(g), dims, keep)).max() <= 1e-15


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
