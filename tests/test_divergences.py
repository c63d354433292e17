import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrenyi.divergences import (
    RenyiOrder,
    conditional_entropy,
    conditional_renyi,
    d_max,
    duality_gap,
    f_alpha,
    h_hat,
    kl,
    q_tilde,
    qre,
    renyi_entropy,
    rre,
    srd,
    von_neumann_entropy,
)
from qrenyi.errors import (
    AbsoluteContinuityViolation,
    DisjointSupports,
    SupportViolation,
)
from qrenyi.linalg import (
    fidelity,
    hermitian_part,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    tensor,
)
from qrenyi.states import (
    BipartiteState,
    maximally_mixed,
    projector,
    random_density,
    random_pure,
    random_unitary,
    substream,
)

from conftest import classical_kl, classical_renyi, random_psd_from

ALPHAS = (0.5, 0.75, 1.5, 2.0, 3.0)

KET0 = np.diag([1.0, 0.0]).astype(complex)


def bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(projector(phi), 2, 2)


class TestRenyiOrder:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 3.0, 100.0])
    def test_exponent_identities(self, alpha):
        order = RenyiOrder(alpha)
        g = order.gamma
        assert abs(2 * g * alpha + alpha - 1.0) < 1e-14
        assert abs(2 * g + (alpha - 1.0) * (2 * g + 1.0)) < 1e-14

    @pytest.mark.parametrize(
        "alpha,beta", [(2.0, 2.0 / 3.0), (3.0, 0.6), (0.75, 1.5), (0.5, math.inf)]
    )
    def test_dual(self, alpha, beta):
        assert RenyiOrder(alpha).dual_beta == pytest.approx(beta)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.0, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            RenyiOrder(bad)


class TestTraceFunctional:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_self_is_one(self, alpha):
        for t in range(5):
            rng = substream(401, t)
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert abs(q_tilde(rho, rho, alpha) - 1.0) < 1e-11

    def test_half_order_is_fidelity(self):
        for t in range(10):
            rng = substream(402, t)
            w = random_density(3, 3, rng)
            tau = random_density(3, 3, rng)
            assert abs(q_tilde(w, tau, 0.5) - fidelity(w, tau)) < 1e-11

    def test_commuting_reduces_to_scalars(self):
        rng = substream(403)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        for alpha in (0.75, 2.0):
            got = q_tilde(np.diag(p).astype(complex), np.diag(q).astype(complex), alpha)
            want = float(np.sum(p**alpha * q ** (1 - alpha)))
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 20.0, 100.0])
    def test_large_orders_commuting(self, alpha):
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.05, 0.15, 0.8])
        got = q_tilde(np.diag(p).astype(complex), np.diag(q).astype(complex), alpha)
        want = float(np.sum(p**alpha * q ** (1 - alpha)))
        assert abs(got - want) <= 1e-12 * want

    def test_overflow_is_inf_without_warning(self):
        rho, sig = random_density(2, 2, 11), random_density(2, 2, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_tilde(rho, sig, 1000) == math.inf

    def test_support_errors(self):
        sigma_def = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SupportViolation):
            q_tilde(maximally_mixed(2), sigma_def, 2.0)
        with pytest.raises(DisjointSupports):
            q_tilde(KET0, np.diag([0.0, 1.0]).astype(complex), 0.75)

    def test_unitary_invariance(self):
        for t in range(10):
            rng = substream(404, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            u = random_unitary(d, rng)
            for alpha in (0.6, 2.0):
                q0 = q_tilde(rho, sig, alpha)
                q1 = q_tilde(u @ rho @ u.conj().T, u @ sig @ u.conj().T, alpha)
                assert abs(q0 - q1) < 1e-10 * max(1.0, abs(q0))

    def test_tensor_invariance(self):
        for t in range(10):
            rng = substream(405, t)
            rho = random_density(3, 3, rng)
            sig = random_density(3, 3, rng)
            tau = random_density(2, 2, rng)
            for alpha in (0.6, 2.0):
                q0 = q_tilde(rho, sig, alpha)
                q1 = q_tilde(tensor(rho, tau), tensor(sig, tau), alpha)
                assert abs(q0 - q1) < 1e-10 * max(1.0, abs(q0))

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_joint_convexity_concavity(self, alpha):
        # convex above 1, concave on [1/2, 1): slack -1e-9
        for t in range(25):
            rng = substream(406, t, int(alpha * 100))
            d = int(rng.integers(2, 4))
            r1, r2 = random_density(d, d, rng), random_density(d, d, rng)
            s1, s2 = random_density(d, d, rng), random_density(d, d, rng)
            lam = float(rng.uniform(0.1, 0.9))
            mixed = q_tilde(
                hermitian_part(lam * r1 + (1 - lam) * r2),
                hermitian_part(lam * s1 + (1 - lam) * s2),
                alpha,
            )
            avg = lam * q_tilde(r1, s1, alpha) + (1 - lam) * q_tilde(r2, s2, alpha)
            if alpha > 1:
                assert mixed <= avg + 1e-9
            else:
                assert mixed >= avg - 1e-9


class TestDivergences:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_self_divergence_zero(self, alpha):
        rho = random_density(3, 3, 5)
        assert abs(srd(rho, rho, alpha).value) < 1e-10
        assert abs(rre(rho, rho, alpha).value) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 2.0, 3.0, 100.0])
    def test_pure_vs_maximally_mixed(self, alpha):
        assert abs(srd(KET0, maximally_mixed(2), alpha).value - 1.0) < 1e-9
        if alpha <= 3.0:
            assert abs(rre(KET0, maximally_mixed(2), alpha).value - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha", [math.inf, 1e-300])
    def test_extreme_order_raises_value_error(self, alpha):
        rho = random_density(2, 2, 11)
        sigma = random_density(2, 2, 12)
        with pytest.raises(ValueError, match="alpha"):
            srd(rho, sigma, alpha)

    def test_infinite_branch_above_one(self):
        dv = srd(maximally_mixed(2), KET0, 2.0)
        assert dv.value == math.inf
        assert dv.support_case == "overlapping"
        assert not dv.is_finite

    def test_disjoint_below_one(self):
        dv = srd(KET0, np.diag([0.0, 1.0]).astype(complex), 0.75)
        assert dv.value == math.inf
        assert dv.support_case == "disjoint"

    def test_alpha_one_dispatches_to_qre(self):
        rho = random_density(3, 3, 11)
        sig = random_density(3, 3, 12)
        assert srd(rho, sig, 1.0).value == qre(rho, sig).value
        assert rre(rho, sig, 1.0).value == qre(rho, sig).value

    def test_non_negativity_and_faithfulness(self):
        for t in range(40):
            rng = substream(407, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            for alpha in ALPHAS:
                assert srd(rho, sig, alpha).value >= -1e-10
            assert srd(rho, rho, 2.0).value < 1e-10

    def test_ordering_in_alpha(self):
        for t in range(25):
            rng = substream(408, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            values = [srd(rho, sig, a).value for a in ALPHAS]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9

    def test_classical_reduction(self):
        for t in range(15):
            rng = substream(409, t)
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            rho = np.diag(p).astype(complex)
            sig = np.diag(q).astype(complex)
            for alpha in ALPHAS:
                want = classical_renyi(p, q, alpha)
                assert abs(srd(rho, sig, alpha).value - want) < 1e-10
                assert abs(rre(rho, sig, alpha).value - want) < 1e-10
                assert abs(srd(rho, sig, alpha).value - rre(rho, sig, alpha).value) < 1e-10


class TestQreAndDmax:
    def test_qre_self_zero(self):
        rho = random_density(4, 4, 3)
        assert abs(qre(rho, rho).value) < 1e-10

    def test_qre_classical(self):
        assert abs(qre(KET0, maximally_mixed(2)).value - 1.0) < 1e-12
        rng = substream(410)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        got = qre(np.diag(p).astype(complex), np.diag(q).astype(complex)).value
        assert abs(got - classical_kl(p, q)) < 1e-11

    def test_qre_infinite(self):
        assert qre(maximally_mixed(2), KET0).value == math.inf

    def test_alpha_to_one_continuity(self):
        for t in range(20):
            rng = substream(411, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            base = qre(rho, sig).value
            for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(srd(rho, sig, alpha).value - base) <= 1e-3

    def test_dmax_examples(self):
        rho = random_density(3, 3, 7)
        assert abs(d_max(rho, rho).value) < 1e-10
        assert abs(d_max(KET0, maximally_mixed(2)).value - 1.0) < 1e-12
        assert d_max(maximally_mixed(2), KET0).value == math.inf

    def test_srd_increases_to_dmax(self):
        for t in range(15):
            rng = substream(412, t)
            d = int(rng.integers(2, 4))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            dm = d_max(rho, sig).value
            assert srd(rho, sig, 100.0).value <= dm + 0.05

    def test_large_order_stays_finite(self):
        # tr(x^alpha) itself overflows here: its largest eigenvalue is ~455
        rho = random_density(2, 2, 11)
        sig = random_density(2, 2, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = srd(rho, sig, 1000.0).value
        assert math.isfinite(value)
        assert srd(rho, sig, 100.0).value <= value <= d_max(rho, sig).value


class TestKl:
    def test_self_zero(self):
        p = [0.2, 0.3, 0.5]
        assert kl(p, p) == 0.0

    def test_hand_value(self):
        assert abs(kl([1.0, 0.0], [0.5, 0.5]) - 1.0) < 1e-14

    def test_non_negative(self):
        for t in range(30):
            rng = substream(413, t)
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl(p, q) >= 0.0

    def test_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityViolation):
            kl([0.5, 0.5], [1.0, 0.0])


class TestVariational:
    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_critical_point_attains(self, alpha):
        for t in range(8):
            rng = substream(414, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            q = q_tilde(rho, sig, alpha)
            hh = h_hat(rho, sig, alpha)
            assert abs(f_alpha(hh, rho, sig, alpha) - q) < 1e-9 * max(1.0, q)

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_random_candidates_never_beat(self, alpha):
        for t in range(5):
            rng = substream(415, t)
            d = int(rng.integers(2, 4))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            q = q_tilde(rho, sig, alpha)
            for _ in range(40):
                h = random_psd_from(rng, d, scale=float(rng.uniform(0.05, 3.0)))
                f = f_alpha(h, rho, sig, alpha)
                if alpha > 1:
                    assert f <= q + 1e-9
                else:
                    assert f >= q - 1e-9

    def test_zero_candidate_above_one(self):
        rho = random_density(3, 3, 1)
        sig = random_density(3, 3, 2)
        assert f_alpha(np.zeros((3, 3), dtype=complex), rho, sig, 2.0) == 0.0
        assert 0.0 <= q_tilde(rho, sig, 2.0)

    @pytest.mark.parametrize("alpha", [0.75, 1.01, 2.0])
    def test_commuting_closed_form(self, alpha):
        # diagonal inputs: f = a sum p h - (a-1) sum h^(a/(a-1)) q
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.3, 0.5])
        h = np.array([2.0, 1.5, 0.5])
        got = f_alpha(*(np.diag(v).astype(complex) for v in (h, p, q)), alpha)
        want = alpha * float(p @ h) - (alpha - 1) * float(np.sum(h ** (alpha / (alpha - 1)) * q))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_overflow_is_signed_inf_without_warning(self):
        rho, sig = random_density(2, 2, 11), random_density(2, 2, 12)
        eye = np.eye(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f_alpha(50 * eye, rho, sig, 1.001) == -math.inf
            assert f_alpha(0.01 * eye, rho, sig, 0.999) == math.inf

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_perturbing_optimizer_strictly_degrades(self, alpha, eps):
        # strict concavity/convexity: noise on the critical observable
        # moves the functional in the suboptimal direction
        for t in range(5):
            rng = substream(416, t, int(eps * 1e5))
            d = int(rng.integers(2, 4))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            hh = h_hat(rho, sig, alpha)
            base = f_alpha(hh, rho, sig, alpha)
            noise = random_psd_from(rng, d)
            noise = noise / max_abs(noise)
            perturbed = f_alpha(hh + eps * noise, rho, sig, alpha)
            if alpha > 1:
                assert perturbed < base
            else:
                assert perturbed > base

    def test_h_hat_self_is_support_projector(self):
        rho = random_density(3, 2, 9)
        for alpha in (0.75, 2.0):
            hh = h_hat(rho, rho, alpha)
            assert max_abs(hh @ hh - hh) < 1e-9

    def test_h_hat_alpha_two_closed_form(self):
        rho = random_density(3, 3, 10)
        sig = random_density(3, 3, 11)
        isq = matrix_power_on_support(sig, -0.5)
        assert max_abs(h_hat(rho, sig, 2.0) - isq @ rho @ isq) < 1e-10

    def test_h_hat_commuting_scalar_oracle(self):
        rng = substream(417)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        alpha = 2.0
        hh = h_hat(np.diag(p).astype(complex), np.diag(q).astype(complex), alpha)
        want = np.diag(p ** (alpha - 1.0) * q ** (1.0 - alpha))
        assert max_abs(hh - want) < 1e-10


class TestEntropies:
    def test_renyi_entropy_examples(self):
        psi = projector(random_pure(3, 1))
        assert abs(renyi_entropy(psi, 0.7)) < 1e-9
        assert abs(renyi_entropy(maximally_mixed(4), 2.0) - 2.0) < 1e-12
        got = renyi_entropy(np.diag([0.75, 0.25]).astype(complex), 2.0)
        assert abs(got - math.log2(8.0 / 5.0)) < 1e-12

    def test_special_orders(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert abs(renyi_entropy(rho, 1.0) - von_neumann_entropy(rho)) < 1e-14
        assert abs(renyi_entropy(rho, math.inf) - 1.0) < 1e-12
        assert abs(renyi_entropy(rho, 0.0) - math.log2(3.0)) < 1e-12

    @pytest.mark.parametrize("alpha", [3000.0, 1e4])
    def test_renyi_entropy_large_order_finite(self, alpha):
        # tr(rho^alpha) underflows here; the log-domain sum keeps it finite
        rho = random_density(2, 2, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = renyi_entropy(rho, alpha)
        assert math.isfinite(got)
        assert renyi_entropy(rho, math.inf) <= got <= renyi_entropy(rho, 1000.0)

    def test_von_neumann(self):
        assert abs(von_neumann_entropy(projector(random_pure(4, 2)))) < 1e-9
        assert abs(von_neumann_entropy(maximally_mixed(2)) - 1.0) < 1e-12

    def test_conditional_entropy_maximally_entangled(self):
        assert abs(conditional_entropy(bell_state()) + 1.0) < 1e-10


class TestConditionalRenyi:
    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            conditional_renyi(bell_state(), 0.3)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 2.0, 3.0])
    def test_product_case(self, alpha):
        rng = substream(418)
        rho_a = random_density(2, 2, rng)
        tau_b = random_density(2, 2, rng)
        st = BipartiteState(tensor(rho_a, tau_b), 2, 2)
        value, opt = conditional_renyi(st, alpha)
        assert abs(value - renyi_entropy(rho_a, alpha)) < 2e-7
        assert max_abs(opt - tau_b) < 1e-4

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 2.0, 5.0])
    def test_maximally_entangled(self, alpha):
        value, _ = conditional_renyi(bell_state(), alpha)
        assert abs(value + 1.0) < 2e-7

    @pytest.mark.parametrize("alpha", [0.75, 2.0, 3.0])
    def test_pure_state_dual_entropy(self, alpha):
        for t in range(4):
            rng = substream(419, t)
            psi = random_pure(4, rng)
            st = BipartiteState(projector(psi), 2, 2)
            value, _ = conditional_renyi(st, alpha)
            beta = RenyiOrder(alpha).dual_beta
            rho_a = partial_trace(projector(psi), 2, 2, "A")
            assert abs(value - (-renyi_entropy(rho_a, beta))) < 5e-7

    def test_alpha_one_is_von_neumann(self):
        rng = substream(420)
        st = BipartiteState(random_density(4, 4, rng), 2, 2)
        value, opt = conditional_renyi(st, 1.0)
        assert abs(value - conditional_entropy(st)) < 1e-12
        assert max_abs(opt - st.marginal_b()) < 1e-12

    def test_optimizer_achieves_value_with_right_support(self):
        from qrenyi.divergences import classify_supports

        for alpha in (0.75, 2.0):
            rng = substream(421, int(alpha * 100))
            st = BipartiteState(random_density(4, 2, rng), 2, 2)
            value, opt = conditional_renyi(st, alpha)
            assert abs(np.trace(opt).real - 1.0) < 1e-9
            achieved = srd(st.mat, tensor(np.eye(2, dtype=complex), opt), alpha)
            assert abs(-achieved.value - value) < 1e-6
            assert classify_supports(st.marginal_b(), opt) == "contained"

    def test_damped_iteration_keeps_its_anderson_step(self, monkeypatch):
        # the first full step on this state raises the value, so the iteration
        # is damped from then on; plain damped steps alone need > 2000 steps
        import qrenyi.divergences as divergences

        calls = []
        step = divergences._fixed_point_step

        def counting_step(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(divergences, "_fixed_point_step", counting_step)
        st = BipartiteState(random_density(6, 2, substream(933, 72)), 2, 3)
        value, _ = conditional_renyi(st, 3.0)
        assert len(calls) < 200
        assert abs(value + 0.36521149265626) < 1e-12


class TestDuality:
    def test_product_state(self):
        rng = substream(422)
        st = BipartiteState(tensor(random_density(2, 2, rng), random_density(2, 2, rng)), 2, 2)
        assert duality_gap(st, 2.0) < 2e-6

    def test_pure_state(self):
        rng = substream(423)
        st = BipartiteState(projector(random_pure(4, rng)), 2, 2)
        assert duality_gap(st, 2.0) < 2e-6

    def test_random_two_qubit(self):
        for t in range(5):
            rng = substream(424, t)
            st = BipartiteState(random_density(4, 4, rng), 2, 2)
            assert duality_gap(st, 2.0) <= 1e-5

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            duality_gap(bell_state(), 0.5)

    def test_fixed_point_alone_closes_slow_state(self, monkeypatch):
        # at order 3 this state needs more than 500 fixed-point steps
        def refuse(*args, **kwargs):
            raise AssertionError("conditional_renyi called minimize")

        monkeypatch.setattr("qrenyi.divergences.minimize", refuse)
        st = BipartiteState(random_density(4, 4, substream(922, 4, 300, 7)), 2, 2)
        assert duality_gap(st, 3.0) <= 1e-10


# alpha in [1/2, 5]; near alpha = 1 the 1/(alpha - 1) factor amplifies roundoff
orders = st.floats(0.5, 5.0).filter(lambda a: abs(a - 1.0) > 1e-3)

property_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


class TestSrdProperties:
    @property_settings
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), orders)
    def test_unitary_invariance(self, d, seed, alpha):
        rng = np.random.default_rng(seed)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, int(rng.integers(1, d + 1)), rng)
        u = random_unitary(d, rng)
        before = srd(rho, sig, alpha)
        after = srd(u @ rho @ u.conj().T, u @ sig @ u.conj().T, alpha)
        assert after.support_case == before.support_case
        if before.is_finite:
            tol = 1e-8 * max(1.0, abs(before.value))
            assert abs(after.value - before.value) <= tol
        else:
            assert not after.is_finite

    @property_settings
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), orders)
    def test_classical_reduction(self, d, seed, alpha):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(d))
        p[: int(rng.integers(0, d))] = 0.0  # rho of any rank, sigma of full rank
        p /= np.sum(p)
        q = rng.dirichlet(np.ones(d))
        want = classical_renyi(p, q, alpha)
        got = srd(np.diag(p).astype(complex), np.diag(q).astype(complex), alpha)
        assert abs(got.value - want) <= 1e-10 * max(1.0, abs(want))
