import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrenyi.channels import (
    amplitude_damping,
    apply,
    identity_channel,
    measurement_channel,
    partial_trace_channel,
    random_channel,
    unitary_channel,
)
from qrenyi.divergences import classify_supports, d_max, qre, rre, srd
from qrenyi.dpi import (
    dpi_check,
    dpi_violation_search,
    equality_residual,
    equality_residual_partial_trace,
    equality_residual_stinespring,
    fidelity_attaining_povm,
    fuchs_caves_observable,
    petz_recovery,
    sufficiency_test,
)
from qrenyi.errors import NegativeEigenvalue
from qrenyi.linalg import fidelity, hermitian_eig, max_abs, tensor
from qrenyi.states import random_density, random_unitary, substream
from qrenyi.suites import _constructed_equality_instance, _random_triple

ALPHAS = (0.5, 0.75, 1.5, 2.0, 3.0)


def _valid_random_channel(rng, dmax=4):
    d_in = int(rng.integers(2, dmax + 1))
    d_out = int(rng.integers(2, dmax + 1))
    kc = int(rng.integers(1, 4))
    while kc * d_out < d_in:
        kc += 1
    return random_channel(d_in, d_out, kc, rng)


class TestDpiCheck:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unitary_gap_zero(self, alpha):
        rng = substream(501)
        rho = random_density(3, 3, rng)
        sig = random_density(3, 3, rng)
        chan = unitary_channel(random_unitary(3, rng))
        assert abs(dpi_check(rho, sig, chan, alpha).gap) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_common_factor_partial_trace_gap_zero(self, alpha):
        rng = substream(502)
        tau = random_density(2, 2, rng)
        rho = tensor(random_density(2, 2, rng), tau)
        sig = tensor(random_density(2, 2, rng), tau)
        chan = partial_trace_channel(2, 2, keep="A")
        assert abs(dpi_check(rho, sig, chan, alpha).gap) < 1e-10

    def test_damping_gap_golden(self):
        rho = random_density(2, 2, 1042)
        sig = random_density(2, 2, 1043)
        rep = dpi_check(rho, sig, amplitude_damping(0.3), 2.0)
        assert rep.gap > 0.0
        assert abs(rep.gap - 0.5856021180289361) < 1e-11

    def test_gap_nonnegative_battery(self):
        for t in range(60):
            rng = substream(503, t)
            chan = _valid_random_channel(rng)
            rho = random_density(chan.dim_in, chan.dim_in, rng)
            sig = random_density(chan.dim_in, chan.dim_in, rng)
            alpha = ALPHAS[t % len(ALPHAS)]
            assert dpi_check(rho, sig, chan, alpha).gap >= -1e-9


class TestEqualityResidual:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unitary_is_equal(self, alpha):
        rng = substream(504)
        rho = random_density(3, 3, rng)
        sig = random_density(3, 3, rng)
        cert = equality_residual(rho, sig, unitary_channel(random_unitary(3, rng)), alpha)
        assert cert.verdict == "equal"
        assert cert.residual <= 1e-10 * max(1.0, max_abs(cert.lhs_operator))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_common_factor_partial_trace_is_equal(self, alpha):
        rng = substream(505)
        tau = random_density(2, 2, rng)
        rho = tensor(random_density(2, 2, rng), tau)
        sig = tensor(random_density(2, 2, rng), tau)
        chan = partial_trace_channel(2, 2, keep="A")
        cert = equality_residual(rho, sig, chan, alpha)
        assert cert.verdict == "equal"
        assert cert.residual <= 1e-9 * max(1.0, max_abs(cert.lhs_operator))

    def test_identity_channel_residual_zero(self):
        for t in range(10):
            rng = substream(506, t)
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            cert = equality_residual(rho, sig, identity_channel(d), 2.0)
            assert cert.residual < 1e-12

    def test_generic_residual_golden(self):
        rho = random_density(2, 2, 1042)
        sig = random_density(2, 2, 1043)
        cert = equality_residual(rho, sig, amplitude_damping(0.3), 2.0)
        assert cert.verdict == "not-equal"
        assert cert.residual > 1e-3
        assert abs(cert.residual - 3.6744120969013014) < 1e-9

    def test_verdict_tracks_gap(self):
        mismatches = 0
        for t in range(50):
            rng = substream(507, t)
            chan = _valid_random_channel(rng)
            rho = random_density(chan.dim_in, chan.dim_in, rng)
            sig = random_density(chan.dim_in, chan.dim_in, rng)
            alpha = ALPHAS[t % len(ALPHAS)]
            rep = dpi_check(rho, sig, chan, alpha)
            cert = equality_residual(rho, sig, chan, alpha)
            equal = cert.verdict == "equal"
            if equal != (abs(rep.gap) <= 1e-6):
                mismatches += 1
        assert mismatches == 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_soundness_completeness_battery(self, alpha):
        # 500 instances per order, zero classification disagreements
        # between the certificate (eq_tol 1e-7) and the gap (cross_tol 1e-6)
        equal_seen = 0
        for t in range(500):
            rng = substream(530, int(alpha * 100), t)
            if t % 5 == 0:
                d = int(rng.integers(2, 4))
                rho = random_density(d, d, rng)
                sig = random_density(d, d, rng)
                chan = unitary_channel(random_unitary(d, rng))
            elif t % 5 == 1:
                tau = random_density(2, 2, rng)
                rho = tensor(random_density(2, 2, rng), tau)
                sig = tensor(random_density(2, 2, rng), tau)
                chan = partial_trace_channel(2, 2, keep="A")
            else:
                chan = _valid_random_channel(rng, dmax=3)
                rho = random_density(chan.dim_in, chan.dim_in, rng)
                sig = random_density(chan.dim_in, chan.dim_in, rng)
            rep = dpi_check(rho, sig, chan, alpha)
            cert = equality_residual(rho, sig, chan, alpha)
            equal = cert.verdict == "equal"
            equal_seen += equal
            assert equal == (abs(rep.gap) <= 1e-6), (alpha, t, rep.gap, cert.residual)
        assert equal_seen >= 200  # both branches exercised

    def test_partial_trace_two_routes_agree(self):
        for t in range(10):
            rng = substream(508, t)
            rho = random_density(4, 4, rng)
            sig = random_density(4, 4, rng)
            alpha = ALPHAS[t % len(ALPHAS)]
            chan = partial_trace_channel(2, 2, keep="A")
            via_channel = equality_residual(rho, sig, chan, alpha)
            direct = equality_residual_partial_trace(rho, sig, 2, 2, alpha)
            assert abs(via_channel.residual - direct.residual) < 1e-12

    def test_classically_correlated_mismatch(self):
        # diagonal two-qubit state against a mismatched product reference
        p = np.array([0.4, 0.1, 0.2, 0.3])
        rho = np.diag(p).astype(complex)
        rho_a = np.diag([p[0] + p[1], p[2] + p[3]]).astype(complex)
        rho_b = np.diag([p[0] + p[2], p[1] + p[3]]).astype(complex)
        sig = tensor(rho_a, rho_b)
        cert = equality_residual_partial_trace(rho, sig, 2, 2, 2.0)
        rep = dpi_check(rho, sig, partial_trace_channel(2, 2, "A"), 2.0)
        assert cert.residual > 1e-3
        assert rep.gap > 1e-4

    def test_stinespring_route_agrees(self):
        for t in range(15):
            rng = substream(509, t)
            chan = _valid_random_channel(rng, dmax=3)
            rho = random_density(chan.dim_in, chan.dim_in, rng)
            sig = random_density(chan.dim_in, chan.dim_in, rng)
            alpha = ALPHAS[t % len(ALPHAS)]
            c1 = equality_residual(rho, sig, chan, alpha)
            c2 = equality_residual_stinespring(rho, sig, chan, alpha)
            assert abs(c1.residual - c2.residual) < 1e-9
            assert max_abs(c1.rhs_operator - c2.rhs_operator) < 1e-9


class TestPetzRecovery:
    def test_unitary_channel_recovers_everything(self):
        rng = substream(510)
        u = random_unitary(3, rng)
        sig = random_density(3, 3, rng)
        rec = petz_recovery(sig, unitary_channel(u))
        for t in range(5):
            rho = random_density(3, 3, substream(511, t))
            back = apply(rec.channel, apply(unitary_channel(u), rho))
            assert max_abs(back - rho) < 1e-10

    def test_partial_trace_with_product_anchor(self):
        rng = substream(512)
        tau = random_density(3, 3, rng)
        sig_a = random_density(2, 2, rng)
        chan = partial_trace_channel(2, 3, keep="A")
        rec = petz_recovery(tensor(sig_a, tau), chan)
        omega = random_density(2, 2, rng)
        assert max_abs(apply(rec.channel, omega) - tensor(omega, tau)) < 1e-9

    def test_recovers_anchor_battery(self):
        for t in range(30):
            rng = substream(513, t)
            chan = _valid_random_channel(rng)
            sig = random_density(chan.dim_in, int(rng.integers(1, chan.dim_in + 1)), rng)
            rec = petz_recovery(sig, chan)
            back = apply(rec.channel, apply(chan, sig))
            assert max_abs(back - sig) < 1e-9

    def test_damping_recovers_sigma_not_rho(self):
        rng = substream(514)
        sig = random_density(2, 2, rng)
        rho = random_density(2, 2, rng)
        chan = amplitude_damping(0.4)
        rec = petz_recovery(sig, chan)
        assert max_abs(apply(rec.channel, apply(chan, sig)) - sig) < 1e-9
        assert max_abs(apply(rec.channel, apply(chan, rho)) - rho) > 1e-3

    def test_trace_preserving_on_anchor_support(self):
        for t in range(15):
            rng = substream(515, t)
            chan = _valid_random_channel(rng)
            sig = random_density(chan.dim_in, chan.dim_in, rng)
            rec = petz_recovery(sig, chan)
            out = apply(chan, sig)
            spec = hermitian_eig(out)
            comp = sum(k.conj().T @ k for k in rec.channel.kraus)
            # completeness restricted to supp of the pushed-forward anchor
            keep = spec.eigenvalues > 1e-10 * max(1.0, float(np.max(spec.eigenvalues)))
            basis = spec.eigenvectors[:, keep]
            assert max_abs(basis.conj().T @ comp @ basis - np.eye(int(keep.sum()))) < 1e-9


class TestSufficiency:
    def test_unitary_always_sufficient(self):
        rng = substream(516)
        u = random_unitary(3, rng)
        for t in range(5):
            rho = random_density(3, 3, substream(517, t))
            sig = random_density(3, 3, substream(518, t))
            assert sufficiency_test(rho, sig, unitary_channel(u))

    def test_matches_alpha_two_equality(self):
        disagreements = 0
        for t in range(60):
            rng = substream(519, t)
            if t % 2 == 0:
                chan = _valid_random_channel(rng)
                rho = random_density(chan.dim_in, chan.dim_in, rng)
                sig = random_density(chan.dim_in, chan.dim_in, rng)
            else:
                d = int(rng.integers(2, 4))
                rho = random_density(d, d, rng)
                sig = random_density(d, d, rng)
                chan = unitary_channel(random_unitary(d, rng))
            suff = sufficiency_test(rho, sig, chan)
            equal = equality_residual(rho, sig, chan, 2.0).verdict == "equal"
            if suff != equal:
                disagreements += 1
        assert disagreements == 0


class TestViolationSearch:
    def test_finds_violation_below_half(self):
        res = dpi_violation_search(0.3, trials=800, seed=77, refine_steps=50)
        assert res.gap < -1e-4
        assert abs(np.trace(res.rho_ab).real - 1.0) < 1e-9

    def test_control_at_half_finds_none(self):
        res = dpi_violation_search(0.5, trials=300, seed=77, refine_steps=0)
        assert res.gap >= -1e-9

    def test_commuting_instances_never_violate(self):
        # classical data processing holds at every order
        for t in range(40):
            rng = substream(520, t)
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            rho = np.diag(p).astype(complex)
            sig = np.diag(q).astype(complex)
            for alpha in (0.3, 0.45):
                lhs = srd(rho, sig, alpha).value
                rho_a = np.diag([p[0] + p[1], p[2] + p[3]]).astype(complex)
                sig_a = np.diag([q[0] + q[1], q[2] + q[3]]).astype(complex)
                rhs = srd(rho_a, sig_a, alpha).value
                assert lhs - rhs >= -1e-11

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            dpi_violation_search(1.5, trials=10, seed=0)


class TestFidelityMeasurement:
    def test_attains_fidelity_and_breaks_sufficiency(self):
        rng = substream(521)
        rho = random_density(2, 2, rng)
        sig = random_density(2, 2, rng)
        assert max_abs(rho @ sig - sig @ rho) > 1e-3
        povm, f_cl = fidelity_attaining_povm(rho, sig)
        assert abs(f_cl - fidelity(rho, sig)) < 1e-9
        chan = measurement_channel(povm)
        rep = dpi_check(rho, sig, chan, 0.5)
        assert abs(rep.gap) <= 1e-6
        assert not sufficiency_test(rho, sig, chan)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_fuchs_caves_basis_attains_fidelity(self, d):
        for t in range(10):
            rng = substream(522, d, t)
            rho = random_density(d, d, rng)
            sig = random_density(d, d, rng)
            povm, f_cl = fidelity_attaining_povm(rho, sig)
            assert len(povm) == d
            assert abs(f_cl - fidelity(rho, sig)) <= 1e-12
            rep = dpi_check(rho, sig, measurement_channel(povm), 0.5)
            assert abs(rep.gap) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_rank_deficient_sigma(self, d):
        # the observable vanishes on ker(sigma) and, with rank(rho) <
        # rank(sigma), on part of supp(sigma); the basis must not mix them
        for t in range(10):
            rng = substream(524, d, t)
            rho = random_density(d, 1, rng)
            sig = random_density(d, d - 1, rng)
            _, f_cl = fidelity_attaining_povm(rho, sig)
            assert abs(f_cl - fidelity(rho, sig)) <= 1e-7

    def test_order_half_equals_minus_two_log_fidelity(self):
        rng = substream(523)
        rho = random_density(2, 2, rng)
        sig = random_density(2, 2, rng)
        got = srd(rho, sig, 0.5).value
        assert abs(got - (-2.0 * math.log2(fidelity(rho, sig)))) < 1e-10


class TestSpectralReuse:
    """Each operator is decomposed once per call, and the decomposition
    that replaced ``support_of`` still rejects non-positive input."""

    @pytest.mark.parametrize(
        "op, expected",
        [
            (lambda r, s, ch: srd(r, s, 2.0), 3),
            (lambda r, s, ch: dpi_check(r, s, ch, 2.0), 6),
            (lambda r, s, ch: equality_residual(r, s, ch, 2.0), 5),
            (lambda r, s, ch: qre(r, s), 2),
            (lambda r, s, ch: rre(r, s, 2.0), 2),
            (lambda r, s, ch: d_max(r, s), 3),
            (lambda r, s, ch: fuchs_caves_observable(r, s), 2),
        ],
        ids=["srd", "dpi_check", "equality_residual", "qre", "rre", "d_max", "fuchs"],
    )
    def test_eigendecompositions_per_call(self, monkeypatch, op, expected):
        rho = random_density(4, 4, 611)
        sig = random_density(4, 4, 612)
        chan = partial_trace_channel(2, 2)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(None)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        op(rho, sig, chan)
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "op",
        [
            lambda r, s: srd(r, s, 2.0),
            lambda r, s: equality_residual(r, s, identity_channel(2), 2.0),
            classify_supports,
        ],
        ids=["srd", "equality_residual", "classify_supports"],
    )
    @pytest.mark.parametrize("bad_is_rho", [True, False], ids=["rho", "sigma"])
    def test_non_positive_input_raises(self, op, bad_is_rho):
        bad = np.diag([1.2, -0.2]).astype(complex)
        good = random_density(2, 2, 613)
        with pytest.raises(NegativeEigenvalue):
            op(bad, good) if bad_is_rho else op(good, bad)


# alpha in [1/2, 5]; near alpha = 1 the 1/(alpha - 1) factor amplifies roundoff
orders = st.floats(0.5, 5.0).filter(lambda a: abs(a - 1.0) > 1e-3)

property_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


class TestDpiProperties:
    """The processing inequality and the equality certificate on triples
    drawn the way the acceptance suites draw them."""

    @property_settings
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), orders)
    def test_gap_nonnegative(self, dmax, seed, alpha):
        rho, sigma, lam = _random_triple(np.random.default_rng(seed), dmax)
        assert dpi_check(rho, sigma, lam, alpha).gap >= -1e-9

    @property_settings
    @given(
        st.sampled_from(["unitary", "product-trace"]), st.integers(0, 2**32 - 1), orders
    )
    def test_certificate_equal_on_equality_instances(self, kind, seed, alpha):
        rng = np.random.default_rng(seed)
        rho, sigma, lam = _constructed_equality_instance(rng, kind)
        assert equality_residual(rho, sigma, lam, alpha).verdict == "equal"
        assert abs(dpi_check(rho, sigma, lam, alpha).gap) <= 1e-6

    @property_settings
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), orders)
    def test_certificate_not_equal_on_positive_gap(self, dmax, seed, alpha):
        rho, sigma, lam = _random_triple(np.random.default_rng(seed), dmax)
        assume(dpi_check(rho, sigma, lam, alpha).gap > 1e-3)
        assert equality_residual(rho, sigma, lam, alpha).verdict == "not-equal"
