import importlib.util
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from renyi_lab import entropies
from renyi_lab.entropies import (
    STOPS,
    classical_renyi_divergence,
    classical_renyi_entropy,
    cond_entropy_down,
    cond_entropy_up,
    gen_cond_entropy,
    gen_mutual_info,
    measured_mutual_info,
    mutual_info_down,
    mutual_info_up,
    renyi_entropy,
    sandwiched_divergence,
    weighted_norm,
    _divergence_any_order,
)
from renyi_lab import uncertainty
from renyi_lab.linalg import (
    InvalidOrder,
    NotHermitian,
    NotPositiveSemidefinite,
    SystemLayout,
    congruence_eigvalsh,
    dagger,
    embed_block,
    frac_power,
    kron_eigh,
    partial_trace,
    psd_eigh,
    schatten_norm,
    spectral_power,
)
from renyi_lab.orders import REVERSE, hatconj, hconj
from renyi_lab.report import BASE_TOL, FAIL, PASS, Instance, finish
from renyi_lab.states import (
    DensityOperator,
    MeasurementBasis,
    measure,
    random_cq_state,
    random_density,
    random_onb,
    random_pure,
    trial_rng,
)

from bloch_reference import grid_qubit_minimize

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
ORDERS = (0.5, 0.7, 1.0, 2.0, 5.0, math.inf)


def _load_reference():
    """The benchmark's closed forms (perfbench/reference.py), which import
    nothing from renyi_lab; loaded from its file, read only."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()


def rand_pos(d, rng, floor=0.05):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = m @ dagger(m) / d + floor * np.eye(d)
    return x


def register_state(p, dims=None):
    """Diagonal state carrying a pmf in the computational basis."""
    return DensityOperator(np.diag(p).astype(complex), SystemLayout(dims or (len(p),)))


class TestClassicalDivergence:
    def test_self_divergence_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        for a in ORDERS:
            assert classical_renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)

    def test_collision_order_hand_value(self):
        assert classical_renyi_divergence([1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(1.0)

    def test_sup_ratio_order(self):
        p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        assert classical_renyi_divergence(p, q, math.inf) == pytest.approx(np.log2(0.7 / 0.4))

    def test_dominance_failure(self):
        p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        assert classical_renyi_divergence(p, q, 2.0) == math.inf
        assert math.isfinite(classical_renyi_divergence(p, q, 0.7))

    def test_order_zero(self):
        p, q = np.array([1.0, 0.0]), np.array([0.6, 0.4])
        assert classical_renyi_divergence(p, q, 0.0) == pytest.approx(-np.log2(0.6))


class TestSandwichedDivergence:
    def test_self_divergence(self):
        rho = random_density(3, 3, trial_rng(30, 0))
        for a in ORDERS:
            assert sandwiched_divergence(rho, rho, a) == pytest.approx(0.0, abs=1e-10)

    def test_matches_classical_on_commuting_inputs(self):
        rng = trial_rng(30, 1)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        u = random_onb(3, rng).vectors
        rho = (u * p) @ dagger(u)
        sig = (u * q) @ dagger(u)
        for a in ORDERS:
            assert sandwiched_divergence(rho, sig, a) == pytest.approx(
                classical_renyi_divergence(p, q, a), abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        for a in ORDERS:
            assert sandwiched_divergence(rho, np.eye(2) / 2, a) == pytest.approx(1.0, abs=1e-10)

    def test_order_gate(self):
        rho = random_density(2, 2, trial_rng(30, 2))
        with pytest.raises(InvalidOrder):
            sandwiched_divergence(rho, rho, 0.3)

    def test_rejects_non_psd_rho_next_to_ill_conditioned_sigma(self):
        # sigma^c with a tiny eigenvalue scales the sandwich's rounding band
        # far beyond rho's own: rho is checked where it enters
        rho = np.diag([0.0, 1.0 + 1e-7, -1e-7]).astype(complex)
        for sig_min, a in ((1e-8, 2.0), (1e-11, math.inf)):
            sig = np.diag([sig_min, 0.5, 0.5]).astype(complex)
            with pytest.raises(NotPositiveSemidefinite):
                sandwiched_divergence(rho, sig, a)
        with pytest.raises(NotPositiveSemidefinite):
            cond_entropy_up(np.diag([0.5, 0.5 + 1e-7, 0.0, -1e-7]).astype(complex), 2.0, (2, 2))

    @pytest.mark.parametrize("entry, weighted", [
        (lambda rho, tau: sandwiched_divergence(rho, np.kron(tau, tau), 2.0), True),
        (lambda rho, tau: gen_cond_entropy(rho, tau, 2.0, (2, 2)), True),
        (lambda rho, tau: cond_entropy_down(rho, 2.0, (2, 2)), False),
        (lambda rho, tau: cond_entropy_up(rho, 2.0, (2, 2)), False),
        (lambda rho, tau: cond_entropy_up(rho, math.inf, (2, 2)), False),
        (lambda rho, tau: cond_entropy_up(rho, 1.0 + 5e-7, (2, 2)), False),
        (lambda rho, tau: gen_mutual_info(rho, tau, 2.0, (2, 2)), True),
    ], ids=["D", "H", "Hdn", "Hup-2", "Hup-inf", "Hup-window", "I"])
    def test_a_state_is_checked_where_it_enters(self, entry, weighted, monkeypatch):
        # a raw array is checked once, at the public entry, and a skew weight is
        # refused; a DensityOperator was checked when built and is not checked again
        tau = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(NotPositiveSemidefinite):
            entry(np.diag([0.5, 0.5 + 1e-7, 0.0, -1e-7]).astype(complex), tau)
        if weighted:
            skew = tau.copy()
            skew[0, 1] = 0.1
            with pytest.raises(NotHermitian):
                entry(np.eye(4, dtype=complex) / 4.0, skew)
        monkeypatch.setattr(entropies, "psd_eigvalsh", None)
        entry(random_density(4, 3, trial_rng(30, 5), dims=(2, 2)), tau)

    def test_non_finite_states_and_weights_are_refused(self):
        # NaN fails every comparison, so each check is written to fail on it
        nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        half = np.eye(2, dtype=complex) / 2
        for a in ORDERS:
            with pytest.raises(NotHermitian):
                renyi_entropy(nan, a)
            with pytest.raises(NotHermitian):
                sandwiched_divergence(nan, half, a)
            with pytest.raises(NotHermitian):
                sandwiched_divergence(half, nan, a)

    def test_full_support_weights_skip_the_projection(self):
        # the support test decides as the projector formula does, for weights of
        # full, deficient and zero rank, inside and across the order-one window
        def projected(rho, weight, alpha):
            proj = spectral_power(*weight, 0.0)
            inside = float(np.real(np.trace(proj @ rho @ proj)))
            total = float(np.real(np.trace(rho)))
            tol = entropies.SUPPORT_TOL * max(total, 1.0)
            return inside <= tol or alpha >= 1.0 - entropies.ALPHA_ONE_WINDOW and total - inside > tol

        rng = trial_rng(31, 0)
        weights = [psd_eigh(random_density(3, rank, rng).mat) for rank in (3, 2, 1)]
        weights += [psd_eigh(np.zeros((3, 3), dtype=complex)), kron_eigh([3])]
        assert [w[2].all() for w in weights] == [True, False, False, False, True]
        rhos = [random_density(3, rank, rng).mat for rank in (3, 2, 1)]
        rhos += [spectral_power(*w, 0.0) / w[2].sum() for w in weights[1:3]]
        for weight in weights:
            for rho in rhos:
                for alpha in (0.5, 1.0 - 5e-7, 1.0, 2.0, math.inf):
                    assert entropies._misses_weight(rho, weight, alpha) == projected(rho, weight, alpha)

    def test_norm_form_identity(self):
        # divergence as the alpha-norm of the weighted state, to its conjugate power
        rng = trial_rng(30, 3)
        rho = random_density(3, 3, rng).mat
        sig = rand_pos(3, rng)
        for a in (0.6, 1.5, 3.0):
            w = frac_power(sig, -1.0 / (2.0 * hconj(a)))
            val = hconj(a) * np.log2(schatten_norm(w @ rho @ w, a))
            assert sandwiched_divergence(rho, sig, a) == pytest.approx(val, abs=1e-10) or a < 1
            if a < 1:
                assert _divergence_any_order(rho, psd_eigh(sig), a) == pytest.approx(val, abs=1e-10)

    def test_orthogonal_supports_diverge(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sig = np.diag([0.0, 1.0]).astype(complex)
        for a in (0.5, 0.9, 2.0):
            assert sandwiched_divergence(rho, sig, a) == math.inf

    def test_support_violation_above_one(self):
        rho = np.eye(2, dtype=complex) / 2
        sig = np.diag([1.0, 0.0]).astype(complex)
        assert sandwiched_divergence(rho, sig, 2.0) == math.inf
        assert math.isfinite(sandwiched_divergence(rho, sig, 0.7))

    def test_support_violation_in_the_order_one_window(self):
        # D_alpha -> +inf as alpha -> 1 from below (Umegaki's limit), so the
        # whole window around 1 reports +inf, not a finite relative entropy
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        for a in (1.0 - 5e-7, 1.0, 1.0 + 5e-7):
            assert sandwiched_divergence(plus, zero, a) == math.inf, a
        below = sandwiched_divergence(plus, zero, 1.0 - 2e-6)
        assert 1e5 < below < math.inf

    def test_nonnegative_for_density_weight(self):
        for i in range(20):
            rng = trial_rng(30, 10 + i)
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            sig = random_density(3, 3, rng)
            for a in ORDERS:
                assert sandwiched_divergence(rho, sig, a) >= -1e-9

    def test_monotone_in_order(self):
        for i in range(15):
            rng = trial_rng(30, 40 + i)
            rho = random_density(3, 3, rng)
            sig = random_density(3, 3, rng)
            vals = [sandwiched_divergence(rho, sig, a) for a in ORDERS]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_data_processing(self):
        for i in range(15):
            rng = trial_rng(30, 70 + i)
            rho = random_density(4, 4, rng, dims=(2, 2))
            sig = random_density(4, 4, rng, dims=(2, 2))
            basis = random_onb(2, rng)
            for a in ORDERS:
                d0 = sandwiched_divergence(rho, sig, a)
                d_tr = sandwiched_divergence(rho.marginal([0]), sig.marginal([0]), a)
                d_pinch = sandwiched_divergence(measure(rho, basis, 0), measure(sig, basis, 0), a)
                assert d0 >= d_tr - 1e-9
                assert d0 >= d_pinch - 1e-9

    def test_continuity_at_order_one(self):
        for i in range(10):
            rng = trial_rng(30, 120 + i)
            rho = random_density(3, 3, rng)
            sig = random_density(3, 3, rng)
            kl = sandwiched_divergence(rho, sig, 1.0)
            for a in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(sandwiched_divergence(rho, sig, a) - kl) <= 1e-3

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_one_decomposition_of_sigma_is_bit_identical(self, d):
        # sigma's support projector, its power c and its logarithm come from one
        # decomposition, which kron_eigh of one factor passes on as it is; the
        # separate frac_power (at 0, the support projector) and psd_eigh calls give the same bits
        def separate(rho, sigma, alpha):
            proj = frac_power(sigma, 0.0)
            inside, total = np.trace(proj @ rho @ proj).real, np.trace(rho).real
            tol = entropies.SUPPORT_TOL * max(total, 1.0)
            if inside <= tol or alpha >= 1.0 - entropies.ALPHA_ONE_WINDOW and total - inside > tol:
                return math.inf
            if abs(alpha - 1.0) <= entropies.ALPHA_ONE_WINDOW:
                herm = psd_eigh((sigma + dagger(sigma)) / 2.0)
                return float(entropies._tr_log2(rho, psd_eigh(rho)) - entropies._tr_log2(rho, herm))
            w = frac_power(sigma, entropies._sandwich_exponent(alpha))
            return float(entropies._renyi_log_trace(*congruence_eigvalsh(w, rho), alpha))

        for rank in range(1, d + 1):
            rng = trial_rng(31, 10 * d + rank)
            sigma = random_density(d, rank, rng).mat
            u = np.linalg.eigh(sigma)[1][:, ::-1][:, :rank]
            g = u @ (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))
            inside = g @ dagger(g) / np.trace(g @ dagger(g)).real   # on supp sigma
            for rho in (random_density(d, int(rng.integers(1, d + 1)), rng).mat, inside):
                weight = kron_eigh([1, psd_eigh((sigma + dagger(sigma)) / 2.0), 1])
                for alpha in (0.3, 0.5, 0.75, 1.0 - 5e-7, 1.0, 1.5, 4.0, math.inf):
                    assert _divergence_any_order(rho, weight, alpha) == separate(rho, sigma, alpha), \
                        (rank, alpha)


class TestRenyiEntropy:
    def test_uniform_state_all_orders(self):
        for a in (0.0,) + ORDERS:
            assert renyi_entropy(np.eye(2) / 2, a) == pytest.approx(1.0, abs=1e-12)

    def test_min_entropy_hand_value(self):
        assert renyi_entropy(np.diag([0.75, 0.25]), math.inf) == pytest.approx(-np.log2(0.75))

    def test_pure_state_zero(self):
        v = random_pure(3, trial_rng(31, 0))
        rho = np.outer(v, v.conj())
        for a in (0.0,) + ORDERS:
            assert renyi_entropy(rho, a) == pytest.approx(0.0, abs=1e-9)

    def test_special_orders(self):
        rng = trial_rng(31, 1)
        rho = random_density(3, 3, rng).mat
        lam = np.linalg.eigvalsh(rho)
        assert renyi_entropy(rho, 0.0) == pytest.approx(np.log2(3))
        assert renyi_entropy(rho, 2.0) == pytest.approx(-np.log2(np.sum(lam ** 2)))
        assert renyi_entropy(rho, 0.5) == pytest.approx(2 * np.log2(np.sum(np.sqrt(lam))))
        assert renyi_entropy(rho, 1.0) == pytest.approx(-np.sum(lam * np.log2(lam)))

    def test_raw_arrays_must_be_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        for a in (0.5, 1.0, 2.0):
            with pytest.raises(NotHermitian):
                renyi_entropy(bad, a)
            with pytest.raises(NotHermitian):
                sandwiched_divergence(bad, np.eye(2) / 2, a)
        with pytest.raises(NotHermitian):
            sandwiched_divergence(np.eye(2) / 2, bad, 1.0)


class TestConditionalEntropies:
    def test_bell_state_conditional(self):
        rho = np.outer(BELL, BELL.conj())
        for a in ORDERS:
            res = cond_entropy_up(rho, a, (2, 2))
            assert res.value == pytest.approx(-1.0, abs=1e-7)

    def test_product_state(self):
        rng = trial_rng(32, 0)
        ra = random_density(2, 2, rng).mat
        rb = random_density(2, 2, rng).mat
        rho = np.kron(ra, rb)
        for a in (0.6, 1.0, 3.0):
            res = cond_entropy_up(rho, a, (2, 2))
            assert res.value == pytest.approx(renyi_entropy(ra, a), abs=1e-7)

    def test_up_dominates_down(self):
        for i in range(10):
            rng = trial_rng(32, 1 + i)
            rho = random_density(4, int(rng.integers(1, 5)), rng, dims=(2, 2))
            a = float(rng.uniform(0.5, 4.0))
            assert cond_entropy_up(rho, a).value >= cond_entropy_down(rho, a) - 1e-8

    def test_grid_oracle_agreement(self):
        for i in range(4):
            rng = trial_rng(32, 40 + i)
            rho = random_density(4, 4, rng, dims=(2, 2)).mat
            a = float(rng.uniform(0.6, 3.0))
            up = cond_entropy_up(rho, a, (2, 2))

            def objective(sig_stack):
                # D_a(rho || 1 (x) sigma) per matrix of the stack, rho of full rank
                w = embed_block((2, 2), frac_power(sig_stack, (1.0 - a) / (2.0 * a)), [1])
                lam = np.linalg.eigvalsh(w @ rho @ w.conj().swapaxes(-1, -2))
                return np.log2(np.sum(np.maximum(lam, 0.0) ** a, axis=-1)) / (a - 1.0)

            sig, vg, _ = grid_qubit_minimize(objective, (48, 48, 48))
            assert objective(sig[None])[0] == pytest.approx(
                sandwiched_divergence(rho, np.kron(np.eye(2), sig), a), abs=1e-10)
            assert up.value == pytest.approx(-vg, abs=2e-5)

    def test_optimizer_result_fields(self):
        rho = random_density(4, 4, trial_rng(32, 99), dims=(2, 2))
        res = cond_entropy_up(rho, 2.0)
        assert res.iterations >= 1
        assert abs(np.trace(res.optimum.mat) - 1) < 1e-10


class TestMutualInformation:
    def test_down_below_up(self):
        for i in range(8):
            rng = trial_rng(33, i)
            rho = random_density(4, 4, rng, dims=(2, 2))
            a = float(rng.uniform(0.6, 3.0))
            up = mutual_info_up(rho, a).value
            down = mutual_info_down(rho, a).value
            assert down <= up + 1e-7

    def test_product_state_has_no_correlation(self):
        rng = trial_rng(33, 50)
        rho = np.kron(random_density(2, 2, rng).mat, random_density(2, 2, rng).mat)
        for a in (0.7, 1.0, 2.0):
            assert mutual_info_up(rho, a, (2, 2)).value == pytest.approx(0.0, abs=1e-7)
            assert mutual_info_down(rho, a, (2, 2)).value == pytest.approx(0.0, abs=1e-7)

    def test_von_neumann_collapse(self):
        rng = trial_rng(33, 60)
        rho = random_density(4, 4, rng, dims=(2, 2))
        h = renyi_entropy
        expected = h(rho.marginal([0]), 1.0) + h(rho.marginal([1]), 1.0) - h(rho, 1.0)
        assert mutual_info_up(rho, 1.0).value == pytest.approx(expected, abs=1e-8)
        assert mutual_info_down(rho, 1.0).value == pytest.approx(expected, abs=1e-8)

    def test_weight_missing_the_support_gives_inf_without_a_solve(self):
        # no sigma makes |0><0| (x) sigma dominate rho, so every divergence is +inf
        # from alpha = 1 - 1e-6 up, and at every order when rho misses the support
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        cases = [(plus, 1.0), (plus, 1.5), (plus, 2.0), (plus, 1.0 - 5e-7), (one, 0.75), (one, 2.0)]
        for a_part, a in cases:
            rho = np.kron(a_part, np.eye(2) / 2)
            res = gen_mutual_info(rho, zero, a, (2, 2), fixed=0)
            assert res.value == math.inf, (a_part.tolist(), a)
            assert res.iterations == 0 and res.residual == 0.0 and res.stop in STOPS
            assert np.allclose(res.optimum.mat, np.eye(2) / 2)
            assert sandwiched_divergence(rho, np.kron(zero, res.optimum.mat), a) == math.inf
        # below order 1 an overlapping rho keeps its finite value: D(|+><+| || |0><0|) = 3 bits at 3/4
        rho = np.kron(plus, np.eye(2) / 2)
        assert gen_mutual_info(rho, zero, 0.75, (2, 2), fixed=0).value == pytest.approx(3.0, abs=1e-8)


class TestDualities:
    def test_conditional_entropy_duality(self):
        for i in range(12):
            rng = trial_rng(34, i)
            v = random_pure(8, rng)
            rho = np.outer(v, v.conj())
            a = float(rng.uniform(0.55, 3.0))
            hb = cond_entropy_up(partial_trace(rho, (2, 2, 2), [0, 1]), a, (2, 2)).value
            hc = cond_entropy_up(partial_trace(rho, (2, 2, 2), [0, 2]), hatconj(a), (2, 2)).value
            assert hb == pytest.approx(-hc, abs=2e-5)

    def test_generalized_mi_duality(self):
        for i in range(8):
            rng = trial_rng(34, 100 + i)
            v = random_pure(8, rng)
            rho = np.outer(v, v.conj())
            a = float(rng.uniform(0.55, 2.5))
            tau = rand_pos(2, rng, floor=0.2)
            mi_ab = gen_mutual_info(partial_trace(rho, (2, 2, 2), [0, 1]), tau, a, (2, 2), fixed=0)
            tau_inv = frac_power(tau, -1.0)
            mi_ac = gen_mutual_info(partial_trace(rho, (2, 2, 2), [0, 2]), tau_inv, hatconj(a), (2, 2), fixed=0)
            assert mi_ab.value == pytest.approx(-mi_ac.value, abs=2e-5)


class TestWeightedNormIdentities:
    def test_identity_weights_reduce_to_schatten(self):
        rng = trial_rng(35, 0)
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for p in (1.0, 2.0, 3.5, math.inf):
            assert weighted_norm(y, p, np.eye(3), np.eye(3)) == pytest.approx(
                schatten_norm(y, p), abs=1e-12)

    def test_hoelder_pairing(self):
        rng = trial_rng(35, 1)
        for i in range(10):
            sig, tau = rand_pos(2, rng), rand_pos(2, rng)
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = float(rng.uniform(1.1, 4.0))
            pp = hconj(p)
            pairing = abs(np.trace(dagger(y) @ frac_power(sig, 0.5) @ x @ frac_power(tau, 0.5)))
            assert pairing <= weighted_norm(x, p, sig, tau) * weighted_norm(y, pp, sig, tau) + 1e-9

    def test_duality_via_randomized_ascent(self):
        rng = trial_rng(35, 2)
        sig, tau = rand_pos(2, rng, 0.3), rand_pos(2, rng, 0.3)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = 3.0
        pp = hconj(p)
        target = weighted_norm(x, p, sig, tau)
        ws, wt = frac_power(sig, 0.5), frac_power(tau, 0.5)

        def neg_ratio(params):
            y = (params[:4] + 1j * params[4:]).reshape(2, 2)
            den = weighted_norm(y, pp, sig, tau)
            if den < 1e-12:
                return 0.0
            return -abs(np.trace(dagger(y) @ ws @ x @ wt)) / den

        best = 0.0
        for k in range(30):
            res = scipy.optimize.minimize(neg_ratio, rng.standard_normal(8), method="Nelder-Mead",
                                          options={"maxiter": 600, "fatol": 1e-12})
            best = max(best, -res.fun)
        assert best == pytest.approx(target, abs=1e-5)


class TestQuantityNormIdentities:
    """Identities tying the entropic quantities to weighted two-norms of a
    root factor of the state."""

    def _root(self, rho):
        return frac_power(rho, 0.5)

    @staticmethod
    def _schatten(stack, p):
        """Schatten p-norm of each matrix of a stack (p >= 1)."""
        s = np.linalg.svd(stack, compute_uv=False)
        return np.sum(s ** p, axis=-1) ** (1.0 / p)

    def test_entropy_via_weighted_two_norm(self):
        rng = trial_rng(36, 0)
        rho = random_density(4, 4, rng, dims=(2, 2)).mat
        m = self._root(rho)
        for a in (0.7, 1.6, 2.5):
            ap = hconj(a)

            def value(sig_stack):
                w = embed_block((2, 2), frac_power(sig_stack, 1.0 / (2.0 * ap)), [0])
                return 2.0 * ap * np.log2(self._schatten(m @ w, 2))

            _, vg, _ = grid_qubit_minimize(value, (40, 40, 40), maximize=True)
            h = renyi_entropy(partial_trace(rho, (2, 2), [0]), a)
            assert h == pytest.approx(-vg, abs=1e-5)

    def test_cond_entropy_via_weighted_norm(self):
        rng = trial_rng(36, 1)
        rho = random_density(4, 3, rng, dims=(2, 2)).mat
        m = self._root(rho)
        tau = rand_pos(2, rng, 0.2)
        for a in (0.7, 1.5, 3.0):
            ap = hconj(a)
            w = embed_block((2, 2), frac_power(tau, -1.0 / (2.0 * ap)), [1])
            val = -2.0 * ap * np.log2(schatten_norm(m @ w, 2 * a))
            assert gen_cond_entropy(rho, tau, a, (2, 2), weight_pos=1) == pytest.approx(val, abs=1e-8)

    def test_gen_mi_via_weighted_norm(self):
        rng = trial_rng(36, 2)
        rho = random_density(4, 4, rng, dims=(2, 2)).mat
        m = self._root(rho)
        tau = rand_pos(2, rng, 0.2)
        for a in (0.7, 1.7):
            ap = hconj(a)

            w_tau = embed_block((2, 2), frac_power(tau, -1.0 / (2.0 * ap)), [1])

            def value(sig_stack):
                w = embed_block((2, 2), frac_power(sig_stack, -1.0 / (2.0 * ap)), [0]) @ w_tau
                return 2.0 * ap * np.log2(self._schatten(m @ w, 2 * a))

            _, vg, _ = grid_qubit_minimize(value, (40, 40, 40))
            ref = gen_mutual_info(rho, tau, a, (2, 2), fixed=1).value
            assert ref == pytest.approx(vg, abs=2e-5)

    def test_divergence_weight_composition(self):
        # relates a twice-weighted two-norm to the divergence with a tilted product weight
        rng = trial_rng(36, 3)
        rho = random_density(4, 4, rng, dims=(2, 2)).mat
        m = self._root(rho)
        sig_a = rand_pos(2, rng, 0.2)
        tau_b = rand_pos(2, rng, 0.2)
        for a in (0.7, 1.6):
            for lam in (1.0, a, 2.0):
                ap, lp = hconj(a), hconj(lam)
                e1 = (1.0 / a - 1.0 / lam) / 2.0
                y = m @ embed_block((2, 2), frac_power(tau_b, -0.5), [1])
                y = y @ embed_block((2, 2), frac_power(sig_a, e1), [0])
                val = 2.0 * ap * np.log2(
                    schatten_norm(y @ embed_block((2, 2), frac_power(tau_b, 1.0 / (2.0 * a)), [1]), 2 * a))
                tilt = 1.0 - (0.0 if math.isinf(lp) else ap / lp)
                w = kron_eigh([psd_eigh(frac_power(sig_a, tilt)), psd_eigh(tau_b)])
                assert val == pytest.approx(_divergence_any_order(rho, w, a), abs=1e-8)

    def test_norm_as_weighted_trace_supremum(self):
        rng = trial_rng(36, 4)
        x = rand_pos(2, rng, 0.1)
        for p in (0.7, 1.8, 3.0):
            pp = hconj(p)

            def value(sig_stack):
                return pp * np.log2(np.einsum("ij,kji->k", x, frac_power(sig_stack, 1.0 / pp)).real)

            _, vg, _ = grid_qubit_minimize(value, (48, 48, 48), maximize=True)
            assert vg == pytest.approx(pp * np.log2(schatten_norm(x, p)), abs=1e-5)


class TestClassicalReduction:
    def test_closed_forms_on_register_states(self):
        rng = trial_rng(37, 0)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        rho, sig = register_state(p), register_state(q)
        for a in ORDERS:
            assert renyi_entropy(rho, a) == pytest.approx(classical_renyi_entropy(p, a), abs=1e-9)
            assert sandwiched_divergence(rho, sig, a) == pytest.approx(
                classical_renyi_divergence(p, q, a), abs=1e-9)

    def test_conditional_entropy_on_joint_registers(self):
        rng = trial_rng(37, 1)
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        rho = register_state(joint.reshape(-1), dims=(2, 2))
        for a in (0.7, 1.5, 3.0):
            got = cond_entropy_up(rho, a).value
            # classical optimised conditional entropy, closed form
            ref = (a / (1.0 - a)) * np.log2(np.sum(np.sum(joint ** a, axis=0) ** (1.0 / a)))
            assert ref - 1e-9 <= got <= ref + 1e-6

    def test_cq_divergence_reduces_to_pmf(self):
        rng = trial_rng(37, 2)
        p = rng.dirichlet(np.ones(2))
        blocks = [np.diag(rng.dirichlet(np.ones(2))).astype(complex) for _ in range(2)]
        dense = np.einsum("x,xab,xy->xayb", p, np.array(blocks), np.eye(2)).reshape(4, 4)
        rho = DensityOperator(dense, SystemLayout((2, 2)))   # sum_x p(x) |x><x| (x) rho_x
        joint = np.concatenate([p[x] * np.diag(blocks[x]).real for x in range(2)])
        sig_p = rng.dirichlet(np.ones(4))
        sig = register_state(sig_p, dims=(2, 2))
        for a in (0.6, 2.0):
            assert sandwiched_divergence(rho, sig.mat, a) == pytest.approx(
                classical_renyi_divergence(joint, sig_p, a), abs=1e-9)


class TestOptimizer:
    def test_methods_agree_on_random_objective(self):
        # the Bloch-ball grid reference against the spectral closed form of a linear objective
        rng = trial_rng(38, 0)
        h = rand_pos(2, rng)

        def objective(sig):
            sig = np.atleast_3d(sig).reshape(-1, 2, 2)
            return np.einsum("kij,ji->k", sig, h).real

        _, v_gr, _ = grid_qubit_minimize(objective, (32, 32, 32))
        assert v_gr == pytest.approx(np.linalg.eigvalsh(h).min(), abs=1e-5)

    def test_solves_say_why_they_stopped(self, monkeypatch):
        rho = random_density(4, 4, trial_rng(38, 2), dims=(2, 2))
        assert cond_entropy_up(rho, 2.0).stop in STOPS
        # at a finite order I-down is one solve, which reports its own stop
        fixed_point = entropies._solve_fixed_point
        solves = []

        def marked_once(*args):
            solves.append(None)
            return replace(fixed_point(*args), stop="no_step")

        monkeypatch.setattr(entropies, "_solve_fixed_point", marked_once)
        assert mutual_info_down(rho, 2.0).stop == "no_step" and len(solves) == 1
        monkeypatch.undo()
        # at alpha = inf mutual_info_down keeps the worst stop of its alternating solves
        solve = entropies._mutual_info_against
        calls = []

        def marked(*args, **kwargs):
            calls.append(None)
            res = solve(*args, **kwargs)
            return res if len(calls) != 2 else replace(res, stop="no_step")

        monkeypatch.setattr(entropies, "_mutual_info_against", marked)
        assert mutual_info_down(rho, math.inf).stop == "no_step"
        assert len(calls) > 2

    def test_objective_receives_only_stacks(self):
        # single-point evaluations too must arrive as (1, d, d) stacks: a
        # conforming objective returns (1,), which float() does not accept
        h = np.diag([0.3, 1.0]).astype(complex)
        sizes = []

        def objective(sig):
            if np.ndim(sig) != 3:
                raise TypeError(f"objective needs a (k, 2, 2) stack, got shape {np.shape(sig)}")
            sizes.append(len(sig))
            return np.einsum("kij,ji->k", sig, h).real

        assert grid_qubit_minimize(objective, (16, 16, 16))[1] == pytest.approx(0.3, abs=1e-5)
        assert 1 in sizes


def sweep_style_state(seed, i, dims):
    """A state drawn as the divergence suites draw one: its rank first."""
    rng = trial_rng(seed, i)
    d = math.prod(dims)
    return random_density(d, int(rng.integers(1, d + 1)), rng, dims=dims)


def schmidt_state(p, dims, rng):
    """|psi><psi| with squared Schmidt coefficients p in Haar-random local bases."""
    ua, ub = random_onb(dims[0], rng).vectors, random_onb(dims[1], rng).vectors
    psi = sum(math.sqrt(lam) * np.kron(ua[:, i], ub[:, i]) for i, lam in enumerate(p))
    return np.outer(psi, psi.conj())


class TestFixedPoint:
    """Finite-order weight optimisation: closed forms, attained values, monotone iterates."""

    @pytest.mark.parametrize("alpha", (0.5, 0.52, 0.55, 0.75, 2.0, 4.0))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
    def test_pure_state_duality(self, dims, alpha):
        # H^up_alpha(A|B) = -H_beta(A), 1/alpha + 1/beta = 2, with rho_B of full
        # rank (Schmidt rank d_B) and rank-deficient (Schmidt rank below d_B)
        rng = trial_rng(45, int(100 * alpha))
        for rank in sorted({min(dims), 1, min(dims) - 1} - {0}):
            for _ in range(2):
                p = rng.dirichlet(np.ones(rank))
                res = cond_entropy_up(schmidt_state(p, dims, rng), alpha, dims)
                assert res.value == pytest.approx(REFERENCE.pure_cond_entropy_up(p, alpha), abs=1e-10), rank

    def test_pure_state_duality_on_a_sampled_rank_one_state(self):
        # the divergence suites' draw for trial_rng(3, 5) at (3, 3) is rank one
        rho = sweep_style_state(3, 5, (3, 3))
        p = np.linalg.eigvalsh(rho.marginal([0]).mat)
        assert cond_entropy_up(rho, 0.55).value == pytest.approx(
            REFERENCE.pure_cond_entropy_up(p, 0.55), abs=1e-10)

    @pytest.mark.parametrize("alpha", (0.5, 0.75, 2.0, 4.0))
    def test_classical_closed_forms(self, alpha):
        # Arimoto's H^up and Sibson's I^up, with and without empty columns
        rng = trial_rng(46, int(100 * alpha))
        for dims, live in (((2, 2), 2), ((3, 3), 3), ((2, 4), 2), ((3, 4), 4)):
            p = np.zeros(dims)
            p[:, :live] = rng.dirichlet(np.ones(dims[0] * live)).reshape(dims[0], live)
            rho = np.diag(p.ravel()).astype(complex)
            assert cond_entropy_up(rho, alpha, dims).value == pytest.approx(
                REFERENCE.classical_cond_entropy_up(p, alpha), abs=1e-11), dims
            assert mutual_info_up(rho, alpha, dims).value == pytest.approx(
                REFERENCE.classical_mutual_info_up(p, alpha), abs=1e-11), dims

    def test_value_is_the_divergence_at_the_returned_state(self):
        for i in range(4):
            for dims in ((2, 2), (3, 2), (2, 3)):
                rho = sweep_style_state(47, i, dims).mat
                rng = trial_rng(47, 100 + i)
                tau = random_density(dims[0], dims[0], rng).mat
                for alpha in (0.5, 0.55, 0.8, 1.5, 3.0, 8.0):
                    up = cond_entropy_up(rho, alpha, dims)
                    assert -up.value == pytest.approx(sandwiched_divergence(
                        rho, np.kron(np.eye(dims[0]), up.optimum.mat), alpha), abs=1e-12), (i, dims, alpha)
                    mi = gen_mutual_info(rho, tau, alpha, dims, fixed=0)
                    assert mi.value == pytest.approx(sandwiched_divergence(
                        rho, np.kron(tau, mi.optimum.mat), alpha), abs=1e-12), (i, dims, alpha)

    def test_rank_deficient_weight_below_order_one(self):
        # tau misses part of supp rho_A, so only orders below 1 are finite
        rng = trial_rng(48, 0)
        rho = random_density(6, 4, rng, dims=(3, 2)).mat
        tau = np.diag([0.6, 0.4, 0.0]).astype(complex)
        for alpha in (0.5, 0.6, 0.9):
            mi = gen_mutual_info(rho, tau, alpha, (3, 2), fixed=0)
            assert mi.stop in STOPS and math.isfinite(mi.value)
            assert mi.value == pytest.approx(sandwiched_divergence(
                rho, np.kron(tau, mi.optimum.mat), alpha), abs=1e-12)

    def test_iterates_never_rise(self, monkeypatch):
        iterates = entropies._fixed_point_iterates
        runs = []

        def recorded(*args):
            runs.append([])
            for point in iterates(*args):
                runs[-1].append(point.value)
                yield point

        monkeypatch.setattr(entropies, "_fixed_point_iterates", recorded)
        for i in range(4):
            rho = sweep_style_state(49, i, (2, 3))
            for alpha in (0.5, 0.52, 0.7, 2.0, 10.0):
                cond_entropy_up(rho, alpha)
                mutual_info_down(rho, alpha)
        # one run each: H-up, and I-down's joint solve over both blocks
        assert len(runs) == 40 and max(len(r) for r in runs) > 5
        for values in runs:
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_order_one_half(self):
        # k = (2 alpha - 1)/alpha vanishes: the damped step is still defined
        rho = sweep_style_state(50, 1, (2, 2))
        tau = random_density(2, 2, trial_rng(50, 2))
        for res in (cond_entropy_up(rho, 0.5), gen_mutual_info(rho, tau, 0.5, fixed=1),
                    mutual_info_down(rho, 0.5)):
            assert math.isfinite(res.value) and res.stop in STOPS and res.iterations >= 1

    def test_order_one_window_returns_the_marginal_without_iterating(self):
        rho = sweep_style_state(51, 3, (2, 3))
        for alpha in (1.0 - 5e-7, 1.0, 1.0 + 5e-7):
            res = cond_entropy_up(rho, alpha)
            assert res.iterations == 0
            assert np.allclose(res.optimum.mat, rho.marginal([1]).mat, atol=1e-14)
            assert res.value == pytest.approx(cond_entropy_down(rho, 1.0), abs=1e-12)
            mi = mutual_info_down(rho, alpha)
            marginals = np.kron(rho.marginal([0]).mat, rho.marginal([1]).mat)
            assert mi.iterations == 0 and np.allclose(mi.optimum.mat, marginals, atol=1e-14)


def alternating_mutual_info_down(rho, alpha, dims):
    """Cold-start alternation over the two marginal weights: a round solves each
    block with the other held fixed, until a round improves less than 1e-9."""
    sig_a, value = partial_trace(rho, dims, [0]), math.inf
    for _ in range(entropies.MI_DOWN_ROUNDS):
        sig_b = gen_mutual_info(rho, sig_a, alpha, dims, fixed=0).optimum.mat
        res = gen_mutual_info(rho, sig_b, alpha, dims, fixed=1)
        sig_a, done = res.optimum.mat, value - res.value < 1e-9
        value = min(value, res.value)
        if done:
            break
    return value


class TestJointMutualInfoDown:
    """I-down at finite orders: one fixed point over sigma_A (x) sigma_B."""

    @pytest.mark.parametrize("i, bound", [(9, 0.6106267), (27, 0.2678884)])
    def test_order_one_half_reaches_below_the_alternating_stall(self, i, bound):
        # cold-start alternation stopped at 0.64992 and 0.27959 bits on these rank-2 states
        rho = sweep_style_state(95, i, (2, 2))
        res = mutual_info_down(rho, 0.5)
        assert res.value <= bound + 1e-9
        assert res.value == pytest.approx(sandwiched_divergence(rho, res.optimum.mat, 0.5), abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_never_above_alternation_and_no_block_improves(self, dims):
        d = math.prod(dims)
        for rank in range(1, d + 1):
            rho = random_density(d, rank, trial_rng(96, 10 * d + rank + dims[0]), dims=dims).mat
            for alpha in (0.5, 0.52, 0.75, 1.5, 2.5, 4.0, 12.0):
                res = mutual_info_down(rho, alpha, dims)
                assert res.value <= alternating_mutual_info_down(rho, alpha, dims) + 1e-9, (rank, alpha)
                # re-solving either block with the other held fixed finds nothing lower
                for fixed in (0, 1):
                    other = partial_trace(res.optimum.mat, dims, [fixed])
                    again = gen_mutual_info(rho, other, alpha, dims, fixed=fixed).value
                    assert again >= res.value - 1e-9, (rank, alpha, fixed)

    @pytest.mark.parametrize("alpha", (0.5, 0.75, 2.0, 12.0, math.inf))
    def test_product_states_with_rank_deficient_factors(self, alpha):
        rng = trial_rng(97, 0)
        for da, db, ra, rb in ((2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 2, 1), (3, 3, 2, 2), (2, 4, 2, 3)):
            rho = np.kron(random_density(da, ra, rng).mat, random_density(db, rb, rng).mat)
            assert mutual_info_down(rho, alpha, (da, db)).value == pytest.approx(0.0, abs=1e-10)

    def test_alternation_at_infinity_checks_rho_once(self, monkeypatch):
        # its 17 rounds run on the state checked at entry: a raw array is
        # checked once, a DensityOperator not at all, and the value stays: the
        # two entries agree to the bit, and the draw built as one product
        # moves the value of the rank-one-sum build, 1.13314831599065, by rounding
        rho = random_density(4, 3, trial_rng(1, 2), dims=(2, 2))
        checked = []
        monkeypatch.setattr(entropies, "psd_eigvalsh",
                            lambda h, _check=entropies.psd_eigvalsh: checked.append(h) or _check(h))
        raw = mutual_info_down(rho.mat, math.inf, (2, 2)).value
        assert len(checked) == 1
        checked.clear()
        assert mutual_info_down(rho, math.inf).value == raw
        assert checked == []
        assert raw == pytest.approx(1.13314831599065, abs=1e-12)

    def test_alternation_at_infinity_says_when_its_rounds_ran_out(self):
        # the last of the MI_DOWN_ROUNDS rounds still lowers I-down_inf by about 6e-5 bits,
        # so no residual bounds the distance from the optimum
        res = mutual_info_down(sweep_style_state(8, 9, (2, 2)), math.inf)
        assert res.stop == "max_iter" and res.residual == math.inf


CQ_ORDERS = (0.5, 0.52, 0.75, 1.5, 2.5, 4.0, 12.0)
WINDOW_ORDERS = (1.0, 1.0 - 5e-7, 1.0 + 5e-7)   # inside ALPHA_ONE_WINDOW


def measured_states(dims, seed):
    """(rho, basis, tau_B) per rank of rho at `dims`: the basis and tau_B random."""
    d = math.prod(dims)
    for rank in range(1, d + 1):
        rng = trial_rng(seed, 10 * d + rank + dims[0])
        yield (random_density(d, rank, rng, dims=dims), random_onb(dims[0], rng),
               random_density(dims[1], dims[1], rng).mat)


class TestMeasuredMutualInfo:
    """I(X:B) of A measured in a basis, solved through the classical register X."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_register_route_meets_the_dense_solves(self, dims):
        for rho, basis, tau in measured_states(dims, 98):
            measured = measure(rho, basis, 0)
            for alpha in CQ_ORDERS:
                down = measured_mutual_info(rho, basis, alpha)
                assert down.value <= mutual_info_down(measured, alpha).value + 1e-10, alpha
                assert down.value == pytest.approx(
                    sandwiched_divergence(measured, down.optimum.mat, alpha), abs=1e-12), alpha
                for weight in (tau, rho.marginal([1]).mat):
                    res = measured_mutual_info(rho, basis, alpha, weight)
                    assert (res.iterations, res.residual, res.stop) == (0, 0.0, "gradient")
                    assert res.value == pytest.approx(
                        gen_mutual_info(measured, weight, alpha, fixed=1).value, abs=1e-11), alpha
                    assert res.value == pytest.approx(sandwiched_divergence(
                        measured, np.kron(res.optimum.mat, weight), alpha), abs=1e-12), alpha

    @pytest.mark.parametrize("alpha", CQ_ORDERS)
    def test_register_weight_is_optimal_at_the_returned_sigma_b(self, alpha):
        # I-down's value is I_alpha against its own sigma_B, and no sigma_X does better there
        for rho, basis, _ in measured_states((2, 3), 99):
            down = measured_mutual_info(rho, basis, alpha)
            sigma_b = partial_trace(down.optimum.mat, (2, 3), [1])
            again = measured_mutual_info(rho, basis, alpha, sigma_b)
            assert again.value == pytest.approx(down.value, abs=1e-11)
            dense = gen_mutual_info(measure(rho, basis, 0), sigma_b, alpha, fixed=1)
            assert dense.value >= down.value - 1e-10

    def test_an_empty_sector(self):
        # rho = |0><0| (x) rho_B measured in the computational basis: sector 1 is exactly 0
        rng = trial_rng(100, 0)
        rho_b = random_density(2, 2, rng).mat
        zero = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityOperator(np.kron(zero, rho_b), SystemLayout((2, 2)))
        basis = MeasurementBasis(np.eye(2, dtype=complex))
        tau = random_density(2, 2, rng).mat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in CQ_ORDERS + WINDOW_ORDERS:
                down = measured_mutual_info(rho, basis, alpha)
                assert down.value == pytest.approx(0.0, abs=1e-10)
                assert np.allclose(partial_trace(down.optimum.mat, (2, 2), [0]), zero, atol=1e-14)
                res = measured_mutual_info(rho, basis, alpha, tau)
                assert res.value == pytest.approx(sandwiched_divergence(rho_b, tau, alpha), abs=1e-12)
                assert np.allclose(res.optimum.mat, zero, atol=1e-14)

    def test_pure_states(self):
        # a maximally entangled state measured in any basis leaves one bit about X in B
        for d in (2, 3):
            psi = np.eye(d).reshape(-1) / math.sqrt(d)
            rho = DensityOperator(np.outer(psi, psi.conj()), SystemLayout((d, d)))
            basis = random_onb(d, trial_rng(101, d))
            for alpha in CQ_ORDERS + WINDOW_ORDERS:
                down = measured_mutual_info(rho, basis, alpha)
                assert down.value == pytest.approx(math.log2(d), abs=1e-10), (d, alpha)
                # against the maximally mixed rho_B the closed form is the same
                res = measured_mutual_info(rho, basis, alpha, np.eye(d) / d)
                assert res.value == pytest.approx(math.log2(d), abs=1e-11), (d, alpha)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (8, 8)])
    def test_order_one_window_meets_the_dense_route(self, dims):
        # inside the window the sectors' spectra give the von Neumann closed form
        for rho, basis, tau in measured_states(dims, 104):
            measured = measure(rho, basis, 0)
            for alpha in WINDOW_ORDERS:
                down, dense = measured_mutual_info(rho, basis, alpha), mutual_info_down(measured, alpha)
                assert (down.iterations, down.residual, down.stop) == (0, 0.0, "gradient")
                assert down.value == pytest.approx(dense.value, abs=1e-12), alpha
                assert np.allclose(down.optimum.mat, dense.optimum.mat, atol=1e-14)
                res = measured_mutual_info(rho, basis, alpha, tau)
                dense = gen_mutual_info(measured, tau, alpha, fixed=1)
                assert (res.iterations, res.residual, res.stop) == (0, 0.0, "gradient")
                assert res.value == pytest.approx(dense.value, abs=1e-12), alpha
                assert np.allclose(res.optimum.mat, dense.optimum.mat, atol=1e-14)

    def test_order_one_window_weight_missing_the_support_gives_inf(self):
        # tau_B = |0><0| leaves supp rho_B, or misses it, so I(X:B) against it is +inf
        psi = np.eye(2).reshape(-1) / math.sqrt(2.0)
        entangled = DensityOperator(np.outer(psi, psi.conj()), SystemLayout((2, 2)))
        zero, one = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        outside = DensityOperator(np.kron(np.eye(2) / 2, one), SystemLayout((2, 2)))
        basis = random_onb(2, trial_rng(105, 0))
        for rho in (entangled, outside):
            for alpha in WINDOW_ORDERS:
                assert measured_mutual_info(rho, basis, alpha, zero).value == math.inf, alpha

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_crossing_the_alpha_one_window_has_no_jump(self, dims):
        w = entropies.ALPHA_ONE_WINDOW
        for rho, basis, tau in measured_states(dims, 102):
            for weight in (None, tau):
                for side in (-1.0, 1.0):
                    inside = measured_mutual_info(rho, basis, 1.0 + side * 0.9 * w, weight).value
                    outside = measured_mutual_info(rho, basis, 1.0 + side * 1.1 * w, weight).value
                    assert abs(inside - outside) <= 1e-5, (side, weight is None)

    @pytest.mark.parametrize("alpha", CQ_ORDERS)
    def test_classical_anchor(self, alpha):
        # blocks and tau_B diagonal in one rotated B basis: Sibson's closed form
        rng = trial_rng(103, int(100 * alpha))
        for dx, db in ((2, 2), (3, 2), (2, 3)):
            p = rng.dirichlet(np.ones(dx * db)).reshape(dx, db)
            t = rng.dirichlet(np.ones(db))
            vx, wb = random_onb(dx, rng).vectors, random_onb(db, rng).vectors
            u = np.kron(vx, wb)
            rho = DensityOperator(u @ np.diag(p.reshape(-1)).astype(complex) @ dagger(u),
                                  SystemLayout((dx, db)))
            tau = wb @ np.diag(t).astype(complex) @ dagger(wb)
            closed = (alpha / (alpha - 1.0)) * math.log2(
                np.sum(np.sum(p ** alpha * t ** (1.0 - alpha), axis=1) ** (1.0 / alpha)))
            res = measured_mutual_info(rho, MeasurementBasis(vx), alpha, tau)
            assert res.value == pytest.approx(closed, abs=1e-12), (dx, db)


def _hall_classical(rho, pair):
    """The hall-classical report of rho and pair, through the suite's sides."""
    inst = Instance("hall-classical", rho.layout.dims, 1.0, 1.0, 1.0, None, REVERSE, rho, pair=pair)
    return finish(inst, 0, *uncertainty.hall_classical_sides(inst), BASE_TOL)


class TestHallClassical:
    """Hall's von Neumann exclusion I(X:Y) + I(Z:Y) <= log2(d^2 c) on cq states."""

    @pytest.mark.parametrize("dims", [(2, 2), (8, 8)])
    def test_matches_the_dense_von_neumann_formula(self, dims, monkeypatch):
        def vn_mutual(state):
            return (renyi_entropy(state.marginal([0]), 1.0) + renyi_entropy(state.marginal([1]), 1.0)
                    - renyi_entropy(state, 1.0))

        pairs = []
        for i in range(200):
            rng = trial_rng(106, i)
            pair = uncertainty.random_pair(dims[0], rng)
            rho = random_cq_state(*dims, rng)   # the hall-classical suite's draw
            pairs.append((rho, pair, vn_mutual(measure(rho, pair.basis_x, 0))
                          + vn_mutual(measure(rho, pair.basis_z, 0))))

        def unmeasured(*args):
            raise AssertionError("the check measured the state")

        monkeypatch.setattr(entropies, "measure", unmeasured)
        for rho, pair, dense in pairs:
            report = _hall_classical(rho, pair)
            assert report.lhs == pytest.approx(dense, abs=1e-12)
            assert report.verdict == PASS

    def test_the_check_can_fail(self, monkeypatch):
        # Y copies X of a mutually unbiased pair: I(X:Y) = log2 d, I(Z:Y) = 0,
        # and the bound log2(d^2 / d) is met with equality
        d = 3
        pair = uncertainty.mub_pair(d)
        copy = sum(np.kron(np.outer(e, e), np.outer(e, e)) for e in np.eye(d)) / d
        rho = DensityOperator(copy.astype(complex), SystemLayout((d, d)))
        report = _hall_classical(rho, pair)
        assert report.lhs == pytest.approx(math.log2(d), abs=1e-12) and report.verdict == PASS
        lowered = uncertainty.hall_bound(pair) - 1e-3
        monkeypatch.setattr(uncertainty, "hall_bound", lambda _: lowered)
        assert _hall_classical(rho, pair).verdict == FAIL


ONE_WINDOW_QUANTITIES = {
    "Hdn": lambda rho, a: cond_entropy_down(rho, a),
    "Hup": lambda rho, a: cond_entropy_up(rho, a).value,
    "Iup": lambda rho, a: mutual_info_up(rho, a).value,
    "Idn": lambda rho, a: mutual_info_down(rho, a).value,
}


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_crossing_the_alpha_one_window_has_no_jump(dims):
    # inside ALPHA_ONE_WINDOW the alpha = 1 closed forms answer, just outside it
    # the general routes do; across the edge every quantity moves by O(window)
    w = entropies.ALPHA_ONE_WINDOW
    d = math.prod(dims)
    for rank in range(1, d + 1):
        for j in range(2):
            rho = random_density(d, rank, trial_rng(90 + d, 10 * rank + j + dims[0]), dims=dims)
            for name, quantity in ONE_WINDOW_QUANTITIES.items():
                for side in (-1.0, 1.0):
                    inside = quantity(rho, 1.0 + side * 0.9 * w)
                    outside = quantity(rho, 1.0 + side * 1.1 * w)
                    assert abs(inside - outside) <= 1e-5, (rank, j, name, side)


def certified_bounds(monkeypatch):
    """The (lo, hi) of every min-entropy programme solved from here on: certified
    bounds, in bits, on the minimum over sigma of D_max(rho || tau (x) sigma)."""
    solve = entropies._min_entropy_sdp
    bounds = []

    def recorded(*args):
        out = solve(*args)
        bounds.append(out[1:3])
        return out

    monkeypatch.setattr(entropies, "_min_entropy_sdp", recorded)
    return bounds


class TestMinEntropy:
    """alpha = inf: the min-entropy programme against closed forms and its own certificate."""

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (2, 4)])
    def test_pure_state_duality(self, dims):
        # H_min(A|B) = -H_{1/2}(A) on pure states, with Schmidt rank below d_B too
        rng = trial_rng(53, 10 * dims[0] + dims[1])
        for rank in sorted({min(dims), 1, min(dims) - 1} - {0}):
            for _ in range(2):
                p = rng.dirichlet(np.ones(rank))
                res = cond_entropy_up(schmidt_state(p, dims, rng), math.inf, dims)
                assert res.value == pytest.approx(
                    REFERENCE.pure_cond_entropy_up(p, math.inf), abs=1e-10), rank

    def test_classical_closed_forms(self):
        # Arimoto's H^up_inf and Sibson's I^up_inf, with and without p(y) = 0
        rng = trial_rng(54, 0)
        for dims, live in (((2, 2), 2), ((3, 3), 3), ((2, 4), 2), ((3, 4), 3)):
            p = np.zeros(dims)
            p[:, :live] = rng.dirichlet(np.ones(dims[0] * live)).reshape(dims[0], live)
            rho = np.diag(p.ravel()).astype(complex)
            assert cond_entropy_up(rho, math.inf, dims).value == pytest.approx(
                REFERENCE.classical_cond_entropy_up(p, math.inf), abs=1e-10), dims
            assert mutual_info_up(rho, math.inf, dims).value == pytest.approx(
                REFERENCE.classical_mutual_info_up(p, math.inf), abs=1e-10), dims

    def test_value_is_attained_and_certified(self, monkeypatch):
        bounds = certified_bounds(monkeypatch)
        for i in range(6):
            for dims in ((2, 2), (3, 2), (2, 3), (3, 3)):
                rho = sweep_style_state(55, i, dims).mat
                tau = random_density(dims[0], dims[0], trial_rng(55, 100 + i)).mat
                up = cond_entropy_up(rho, math.inf, dims)
                mi = gen_mutual_info(rho, tau, math.inf, dims, fixed=0)
                solves = ((up, -up.value, np.kron(np.eye(dims[0]), up.optimum.mat), bounds[-2]),
                          (mi, mi.value, np.kron(tau, mi.optimum.mat), bounds[-1]))
                for res, value, weight, (lo, hi) in solves:
                    assert value == pytest.approx(
                        sandwiched_divergence(rho, weight, math.inf), abs=1e-12), (i, dims)
                    assert lo - 1e-13 <= value <= hi + 1e-13, (i, dims)
                    assert res.residual == hi - lo <= 1e-11, (i, dims)
                    assert res.stop in STOPS and res.iterations >= 1

    def test_never_above_order_twenty(self):
        # H^up_alpha falls with alpha: the programme against the fixed point
        for i in range(6):
            for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
                rho = sweep_style_state(56, i, dims)
                assert cond_entropy_up(rho, math.inf).value <= cond_entropy_up(rho, 20.0).value + 1e-9

    def test_sampled_state_where_mirror_descent_fell_below_the_bound(self, monkeypatch):
        # the divergence suites' draw for trial_rng(47, 0) at (2, 3) is rank one; mirror
        # descent at the stand-in order 1e6 reported H = -0.9999985858937082 there
        bounds = certified_bounds(monkeypatch)
        rho = sweep_style_state(47, 0, (2, 3))
        res = cond_entropy_up(rho, math.inf)
        ((lo, hi),) = bounds
        assert -hi - 1e-13 <= res.value <= -lo + 1e-13
        assert -0.9999985858937082 < -hi - 0.28
        p = np.linalg.eigvalsh(rho.marginal([0]).mat)
        assert res.value == pytest.approx(REFERENCE.pure_cond_entropy_up(p, math.inf), abs=1e-10)
