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
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    PrecisionLoss,
    SupportViolation,
)
from qrenyi.linalg import (
    fidelity,
    hermitian_eig,
    hermitian_part,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    support_of,
    tensor,
)
from qrenyi.states import (
    BipartiteState,
    maximally_mixed,
    projector,
    purify,
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

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_exponents_beyond_twice_the_range(self, alpha):
        # 2 alpha overflows here; the exponents are halved last
        order = RenyiOrder(alpha)
        assert order.gamma == -0.5
        assert order.dual_beta == 0.5

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.floats(1e-300, 8.9e307).filter(lambda a: a != 1.0))
    def test_exponents_bit_identical_where_twice_is_finite(self, alpha):
        order = RenyiOrder(alpha)
        assert order.gamma == (1.0 - alpha) / (2.0 * alpha)
        if alpha >= 0.5:
            assert order.dual_beta == alpha / (2.0 * alpha - 1.0)

    def test_divergences_at_the_top_of_the_range(self):
        # at 1e308 the sandwich exponent was -0.0 and srd read -0.6410; the
        # log of the power sum leaves the float range there, so it is
        # PrecisionLoss, while 1e307 still reads the D_max-like value
        rho, sig = random_density(2, 2, 11), random_density(2, 2, 12)
        assert srd(rho, sig, 1e307).value == pytest.approx(8.830925937336755, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (1e308, 1.7e308):
                for fn in (srd, rre):
                    with pytest.raises(PrecisionLoss):
                        fn(rho, sig, alpha)


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

    def test_underflow_raises_where_srd_does(self):
        # at alpha = 0.002 no eigenvalue of the sandwich survives the cutoff,
        # so the functional and the critical observable are not silently 0
        rho, sig = random_density(2, 2, 1), random_density(2, 2, 2)
        for fn in (srd, q_tilde, h_hat):
            with pytest.raises(PrecisionLoss):
                fn(rho, sig, 0.002)

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

    def test_petz_large_order_stays_finite(self):
        # mu_min^(1 - alpha) overflows here; the log-domain pair sum does not
        rho = random_density(2, 2, 11)
        sig = random_density(2, 2, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [rre(rho, sig, a).value for a in (100.0, 300.0, 1000.0)]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values)
        assert srd(rho, sig, 1000.0).value <= values[-1]


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

    @pytest.mark.parametrize(
        "p, q, error",
        [
            ([math.nan, 1.0], [0.5, 0.5], NonFiniteInput),
            ([0.5, 0.5], [math.inf, 0.5], NonFiniteInput),
            ([-0.5, 1.5], [0.5, 0.5], NegativeEigenvalue),
            ([0.5, 0.5], [1.5, -0.5], NegativeEigenvalue),
        ],
    )
    def test_bad_entries_raise(self, p, q, error):
        with pytest.raises(error):
            kl(p, q)


class TestEmptySupport:
    """Every divergence and entropy of the zero operator raises PrecisionLoss."""

    ZERO = np.zeros((2, 2), dtype=complex)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda z, s: srd(z, s, 2.0),
            lambda z, s: srd(z, s, 0.5),
            lambda z, s: rre(z, s, 2.0),
            lambda z, s: q_tilde(z, s, 2.0),
            lambda z, s: qre(z, s),
            lambda z, s: d_max(z, s),
            lambda z, s: renyi_entropy(z, 0.0),
            lambda z, s: renyi_entropy(z, 1.0),
            lambda z, s: renyi_entropy(z, 2.0),
            lambda z, s: renyi_entropy(z, math.inf),
        ],
        ids=[
            "srd-2",
            "srd-half",
            "rre",
            "q_tilde",
            "qre",
            "d_max",
            "entropy-0",
            "entropy-1",
            "entropy-2",
            "entropy-inf",
        ],
    )
    def test_zero_operator_raises_precision_loss(self, evaluate):
        with pytest.raises(PrecisionLoss):
            evaluate(self.ZERO, maximally_mixed(2))


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

    @pytest.mark.parametrize(
        "rho, error",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], NonFiniteInput),
            ([[1.0, 1.0], [0.0, 0.0]], NonHermitianInput),
        ],
        ids=["nan", "non-hermitian"],
    )
    def test_rho_is_checked(self, rho, error):
        with pytest.raises(error):
            f_alpha(np.eye(2), np.array(rho), maximally_mixed(2), 2.0)

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
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
    def test_non_positive_input_raises(self, alpha):
        with pytest.raises(NegativeEigenvalue):
            renyi_entropy(np.diag([2.0, -1.0]), alpha)

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

    @pytest.mark.parametrize("alpha", [-1.0, math.nan])
    def test_renyi_entropy_rejects_meaningless_orders(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be non-negative, got {alpha}"):
            renyi_entropy(maximally_mixed(2), alpha)

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

    def test_damped_iteration_keeps_its_anderson_step(self, count_calls):
        # the first full step on this state raises the value, so the iteration
        # is damped from then on; plain damped steps alone need > 2000 steps
        import qrenyi.divergences as divergences

        calls = count_calls(divergences, "_fixed_point_step")
        st = BipartiteState(random_density(6, 2, substream(933, 72)), 2, 3)
        value, _ = conditional_renyi(st, 3.0)
        assert len(calls) < 200
        assert abs(value + 0.36521149265626) < 1e-12

    @pytest.mark.parametrize(
        "seed, d, rank, dim_b, alpha",
        [((933, 72), 6, 2, 3, 3.0), ((424, 1), 4, 4, 2, 2.0)],
    )
    def test_decomposes_each_candidate_once(
        self, count_calls, seed, d, rank, dim_b, alpha
    ):
        # one decomposition of the candidate sigma and one of the sandwich;
        # the first is rho_B's, which also gives the rank guard its rank;
        # one more is rho_AB's own, the positivity check of the input
        import qrenyi.divergences as divergences

        steps = count_calls(divergences, "_fixed_point_step")
        rho = random_density(d, rank, substream(*seed))
        st = BipartiteState(rho, d // dim_b, dim_b)
        eighs = count_calls(np.linalg, "eigh")
        conditional_renyi(st, alpha)
        assert 0 < len(eighs) <= 2 * len(steps) + 1

    def test_step_decomposes_the_sandwich_once(self, count_calls):
        from qrenyi.divergences import _fixed_point_step

        rng = substream(934)
        rho = random_density(6, 6, rng)
        sigma = hermitian_eig(random_density(3, 3, rng))
        eighs = count_calls(np.linalg, "eigh")
        value, nxt = _fixed_point_step(rho, 2, 3, sigma, RenyiOrder(2.0), 3)
        assert math.isfinite(value) and nxt.shape == (3, 3)
        assert len(eighs) == 1

    def test_checks_only_the_inputs(self, count_calls):
        # rho_B and the loop's operators are formed from the checked state
        # and decomposed bare, so check_hermitian sees rho_AB once, when its
        # state is made
        import qrenyi.divergences as divergences
        import qrenyi.linalg as linalg

        steps = count_calls(divergences, "_fixed_point_step")
        checks = count_calls(linalg, "check_hermitian")
        st = BipartiteState(random_density(6, 2, substream(933, 72)), 2, 3)
        conditional_renyi(st, 3.0)
        assert len(steps) > 10
        assert len(checks) == 1

    def test_scores_each_candidate_once(self, count_calls):
        # after a damping halving the iterate is unchanged, and so would be
        # its Anderson candidate: no two evaluations may see the same sigma
        import qrenyi.divergences as divergences

        rng = substream(7, 0, 14)
        rho = random_density(4, int(rng.integers(2, 5)), rng)
        steps = count_calls(divergences, "_fixed_point_step")
        conditional_renyi(BipartiteState(rho, 2, 2), 3.0)
        seen = {args[3].reconstruct().tobytes() for args in steps}
        assert len(steps) > 10
        assert len(seen) == len(steps)

    def test_evaluation_budget_on_duality_draws(self, count_calls):
        # the A|B calls of criterion 7's first 20 draws at each of its orders,
        # for which a depth-1 Anderson step needs 1,394 evaluations
        import qrenyi.divergences as divergences

        steps = count_calls(divergences, "_fixed_point_step")
        for pi, alpha in enumerate((2.0, 3.0, 0.75)):
            for t in range(20):
                rng = substream(7, pi, t)
                rho = random_density(4, int(rng.integers(2, 5)), rng)
                conditional_renyi(BipartiteState(rho, 2, 2), alpha)
        assert len(steps) <= 700

    def test_anderson_skips_a_dependent_history(self):
        # residual differences r - r_j that are linearly dependent leave the
        # mixing coefficients undefined: no candidate, so the plain step runs
        from qrenyi.divergences import _anderson_candidate

        def diag(*v):
            return np.diag(v).astype(complex)

        sigma, nxt = diag(0.5, 0.5), diag(0.75, 0.25)
        history = [(sigma, diag(0.5, 0.5)), (sigma, diag(0.625, 0.375))]
        assert _anderson_candidate(history, sigma, nxt) is None
        assert _anderson_candidate([(sigma, nxt)], sigma, nxt) is None
        mixed = _anderson_candidate(history[:1], sigma, nxt)
        assert max_abs(mixed - diag(0.5, 0.5)) < 1e-15

    def test_rejects_non_hermitian_state(self):
        # |a0 b0><a1 b0| is off-diagonal in A, so rho_B stays Hermitian
        mat = random_density(4, 4, substream(935)).copy()
        mat[0, 2] += 0.05
        with pytest.raises(NonHermitianInput):
            conditional_renyi(BipartiteState(mat, 2, 2), 2.0)

    def test_huge_order_stays_finite(self):
        # X's largest eigenvalue is factored out of X^a, so its powers
        # neither underflow to 0 at a = 1e6 nor change the value at a = 1e3
        st = BipartiteState(random_density(4, 4, 3), 2, 2)
        rho_a = st.marginal_a()
        value, opt = conditional_renyi(st, 1e6)
        lower = -renyi_entropy(rho_a, RenyiOrder(1e6).dual_beta)
        assert lower <= value <= renyi_entropy(rho_a, 1e6)
        assert abs(np.trace(opt).real - 1.0) < 1e-9
        value_1e3, _ = conditional_renyi(st, 1e3)
        assert value_1e3 - 1e-2 < value <= value_1e3 + 1e-12  # non-increasing
        assert abs(value_1e3 - 0.19834959247626) < 1e-12


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

    def test_order_near_half_does_not_overflow(self):
        # the dual order is about 2.5e6, where the A|C sandwich's eigenvalues
        # above 1 overflowed when raised to it
        st = BipartiteState(random_density(4, 4, 3), 2, 2)
        assert math.isfinite(duality_gap(st, 0.5000001))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_checks_and_decomposes_rho_ab_once(self, alpha, count_calls):
        # rho_AB was checked and decomposed when its state was made, and the
        # marginals are decomposed bare: the gap checks rho_AC alone, and
        # decomposes nothing beyond the A|B solve, rho_AC's state and the
        # A|C solve
        import qrenyi.linalg as linalg

        st = BipartiteState(random_density(4, 3, substream(937)), 2, 2)
        beta = 1.0 if alpha == 1.0 else RenyiOrder(alpha).dual_beta
        eighs = count_calls(np.linalg, "eigh")
        checks = count_calls(linalg, "check_hermitian")
        gap = duality_gap(st, alpha)
        n_gap, n_checks = len(eighs), len(checks)
        value_b, _ = conditional_renyi(st, alpha)
        n_b = len(eighs) - n_gap
        psi, dim_c = purify(st.mat)
        m = psi.reshape(2, 2, dim_c).transpose(0, 2, 1).reshape(-1, 2)
        del eighs[:]
        state_ac = BipartiteState(m @ m.conj().T, 2, dim_c)
        value_c, _ = conditional_renyi(state_ac, beta)
        assert n_checks == 1
        assert n_gap == n_b + len(eighs)
        assert gap == abs(value_b + value_c)

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

    @property_settings
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.5, 10.0))
    def test_non_decreasing_in_order(self, d, seed, alpha):
        # Mueller-Lennert et al. (2013) and Beigi (2013) for srd, and the
        # convexity of log tr(rho^a sigma^(1-a)) in a for rre; alpha = 1 is the
        # relative entropy, and orders above 1 read inf on uncontained supports
        rng = np.random.default_rng(seed)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, int(rng.integers(1, d + 1)), rng)
        grid = sorted({0.5, 0.75, 1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1000.0, alpha})
        for div in (srd, rre):
            values = [div(rho, sig, a).value for a in grid]
            for lo, hi in zip(values, values[1:]):
                assert hi == math.inf or hi >= lo - 1e-9 * max(1.0, abs(lo))

    @property_settings
    @given(
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 1000.0).filter(lambda a: abs(a - 1.0) > 1e-3),
    )
    def test_at_most_the_petz_divergence(self, d, seed, alpha):
        # Araki-Lieb-Thirring gives D~_a <= D_a (Wilde, Winter & Yang 2014);
        # both read inf on the same support cases
        rng = np.random.default_rng(seed)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, int(rng.integers(1, d + 1)), rng)
        petz = rre(rho, sig, alpha).value
        assert srd(rho, sig, alpha).value <= petz + 1e-9 * max(1.0, abs(petz))

    @property_settings
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.5, 10.0))
    def test_bounded_by_max_relative_entropy(self, d, seed, alpha):
        # rho = sigma^1/2 tau sigma^1/2 / c is contained in supp(sigma), and
        # sigma^-1/2 rho sigma^-1/2 = V tau V^dag / c gives D_max without a
        # matrix power.  tr X^a >= lambda_max(X)^a gives, for a > 1,
        # D~_a >= D_max - (log2(1 / lambda_min(sigma)) - D_max) / (a - 1)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, d + 1))
        v = random_unitary(d, rng)[:, :k]
        lam = rng.dirichlet(np.ones(k))
        tau = random_density(k, int(rng.integers(1, k + 1)), rng)
        rho = v @ (np.sqrt(lam)[:, None] * tau * np.sqrt(lam)) @ v.conj().T
        c = float(np.trace(rho).real)
        rho, sig = rho / c, (v * lam) @ v.conj().T
        want = math.log2(float(np.linalg.eigvalsh(tau)[-1]) / c)
        tol = 1e-9 * max(1.0, abs(want))
        assert srd(rho, sig, alpha).value <= want + tol
        slack = (math.log2(1.0 / lam.min()) - want) / 99.0
        assert want - slack - tol <= srd(rho, sig, 100.0).value <= want + tol

    @property_settings
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
        st.just(1.0) | st.floats(0.5, 5.0),
    )
    def test_additive_over_products(self, d1, d2, seed, alpha):
        # the sandwich, and the Petz trace, factor over rho1 (x) rho2 against
        # sigma1 (x) sigma2; below order 1/2 srd is not additive (ROADMAP
        # item 1), so the property starts at 1/2
        rng = np.random.default_rng(seed)
        pairs = [
            (random_density(d, int(rng.integers(1, d + 1)), rng), random_density(d, d, rng))
            for d in (d1, d2)
        ]
        (r1, s1), (r2, s2) = pairs
        for div in (srd, rre):
            whole = div(tensor(r1, r2), tensor(s1, s2), alpha).value
            parts = div(r1, s1, alpha).value + div(r2, s2, alpha).value
            assert abs(whole - parts) <= 1e-10 * max(1.0, abs(whole))


def _petz_conditional(rho_ab, dim_a, dim_b, alpha):
    """Petz conditional entropy ``a/(1-a) log2 tr[(tr_A rho^a)^(1/a)]``
    (Tomamichel, Berta & Hayashi 2014), from numpy eigendecompositions."""
    lam, v = np.linalg.eigh(rho_ab)
    lam = np.where(lam > 1e-12 * lam[-1], lam, 0.0)
    power = (v * lam**alpha) @ v.conj().T
    marg = np.einsum("abac->bc", power.reshape(dim_a, dim_b, dim_a, dim_b))
    mu = np.clip(np.linalg.eigvalsh(marg), 0.0, None)
    return alpha / (1.0 - alpha) * math.log2(float(np.sum(mu ** (1.0 / alpha))))


def _renyi_of_spectrum(rho, alpha):
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12 * lam[-1]]
    return math.log2(float(np.sum(lam**alpha))) / (1.0 - alpha)


def _kron_fixed_point_step(rho_ab, dim_a, dim_b, sigma_b, alpha, required_rank):
    """The conditional-entropy fixed-point step written out with ``np.kron``,
    numpy's ``eigh`` and the support rule ``lam > 1e-10 max(1, lam_max)``."""

    def on_support(m, fn):
        lam, v = np.linalg.eigh(m)
        keep = lam > 1e-10 * max(1.0, lam[-1])
        vals = np.zeros_like(lam)
        vals[keep] = fn(lam[keep])
        return (v * vals) @ v.conj().T, int(np.sum(keep))

    gamma = (1.0 - alpha) / (2.0 * alpha)
    s_g, rank = on_support(sigma_b, lambda lam: lam**gamma)
    if alpha > 1.0 and rank < required_rank:
        return math.inf, None
    big = np.kron(np.eye(dim_a), s_g)
    xa, _ = on_support(big @ rho_ab @ big, lambda lam: lam**alpha)
    q = float(np.trace(xa).real)
    if q <= 0.0:
        return math.inf, None
    marg = np.trace(xa.reshape(dim_a, dim_b, dim_a, dim_b), axis1=0, axis2=2)
    return math.log2(q) / (alpha - 1.0), marg / q


class TestConditionalRenyiProperties:
    @property_settings
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1), orders)
    def test_between_petz_and_marginal_entropies(self, dim_b, seed, alpha):
        # D~_a <= D-bar_a (Araki-Lieb-Thirring) puts the Petz value below,
        # and conditioning on B lowers the entropy of A
        rng = np.random.default_rng(seed)
        d = 2 * dim_b
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        value, _ = conditional_renyi(BipartiteState(rho, 2, dim_b), alpha)
        lower = _petz_conditional(rho, 2, dim_b, alpha)
        upper = _renyi_of_spectrum(partial_trace(rho, 2, dim_b, "A"), alpha)
        assert lower <= value + 1e-9 * max(1.0, abs(value))
        assert value <= upper + 1e-9 * max(1.0, abs(upper))

    @property_settings
    @given(
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
        st.floats(0.55, 5.0).filter(lambda a: abs(a - 1.0) > 1e-3),
    )
    def test_value_is_the_divergence_at_its_state(self, dim_b, seed, alpha):
        # the value returned belongs to the sigma returned: a history that
        # paired a value with another iterate would show here
        rng = np.random.default_rng(seed)
        d = 2 * dim_b
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        value, sigma = conditional_renyi(BipartiteState(rho, 2, dim_b), alpha)
        div = srd(rho, tensor(np.eye(2, dtype=complex), sigma), alpha).value
        assert abs(value + div) <= 1e-10 * max(1.0, abs(value))
        assert abs(np.trace(sigma).real - 1.0) <= 1e-12

    @property_settings
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2)]),
        st.integers(0, 2**32 - 1),
        orders,
        st.booleans(),
    )
    def test_step_matches_kronecker_formula(self, dims, seed, alpha, full_sigma):
        from qrenyi.divergences import _fixed_point_step

        dim_a, dim_b = dims
        rng = np.random.default_rng(seed)
        d = dim_a * dim_b
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        k = dim_b if full_sigma else int(rng.integers(1, dim_b))
        sigma = random_density(dim_b, k, rng)
        r = support_of(partial_trace(rho, dim_a, dim_b, "B"))
        value, nxt = _fixed_point_step(
            rho, dim_a, dim_b, hermitian_eig(sigma), RenyiOrder(alpha), r
        )
        want, want_nxt = _kron_fixed_point_step(rho, dim_a, dim_b, sigma, alpha, r)
        if want_nxt is None:
            assert value == math.inf and nxt is None
            return
        tol = 1e-12 * max(1.0, abs(want))
        assert abs(value - want) <= tol
        assert max_abs(nxt - want_nxt) <= tol
