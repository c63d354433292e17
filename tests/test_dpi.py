import functools
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
from qrenyi.divergences import (
    classify_supports,
    d_max,
    f_alpha,
    h_hat,
    q_tilde,
    qre,
    rre,
    srd,
)
from qrenyi.dpi import (
    _REFINE_AHEAD,
    _SEARCH_BATCH,
    _draw_factors,
    _states_from_factors,
    _two_qubit_gap,
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
from qrenyi.entanglement import (
    check_saturation_conditions,
    entanglement_fidelity,
    fe_equality_check,
)
from qrenyi.errors import (
    DisjointSupports,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    SupportViolation,
)
from qrenyi.linalg import (
    _bare_eig,
    fidelity,
    hermitian_eig,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    tensor,
)
from qrenyi.states import (
    BipartiteState,
    check_density,
    random_density,
    random_unitary,
    substream,
)
from qrenyi.suites import _constructed_equality_instance, _random_triple

ALPHAS = (0.5, 0.75, 1.5, 2.0, 3.0)

# alpha in [1/2, 5]; near alpha = 1 the 1/(alpha - 1) factor amplifies roundoff
orders = st.floats(0.5, 5.0).filter(lambda a: abs(a - 1.0) > 1e-3)

property_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def _valid_random_channel(rng, dmax=4):
    d_in = int(rng.integers(2, dmax + 1))
    d_out = int(rng.integers(2, dmax + 1))
    kc = int(rng.integers(1, 4))
    while kc * d_out < d_in:
        kc += 1
    return random_channel(d_in, d_out, kc, rng)


def _srd_gap(rho_ab, sigma_ab, alpha):
    """Partial-trace gap of one two-qubit pair through the public ``srd``."""
    rho_a, sig_a = (partial_trace(m, 2, 2, keep="A") for m in (rho_ab, sigma_ab))
    return srd(rho_ab, sigma_ab, alpha).value - srd(rho_a, sig_a, alpha).value


@functools.cache
def _search_one_step_at_a_time(alpha, trials, seed, refine_steps):
    """Reference for ``dpi_violation_search``: every trial and every
    refinement candidate scored alone, with a 2-D ``_two_qubit_gap``.
    Returns ``(gap, rho_ab, sigma_ab, improving steps, whether the step
    fell below 1e-6)``; cached, as several tests compare with one run."""

    def score(g_rho, g_sig):
        return float(_two_qubit_gap(*_states_from_factors(g_rho, g_sig), alpha))

    factors = [_draw_factors(seed, t) for t in range(trials)]
    sampled = [score(*f) for f in factors]
    best = int(np.argmin(sampled))
    gap, (g_rho, g_sig) = sampled[best], factors[best]
    coords = np.concatenate(
        [g_rho.real.ravel(), g_rho.imag.ravel(), g_sig.real.ravel(), g_sig.imag.ravel()]
    )
    n_rho = g_rho.size

    def unpack(c):
        gr = (c[:n_rho] + 1j * c[n_rho : 2 * n_rho]).reshape(g_rho.shape)
        gs = c[2 * n_rho : 2 * n_rho + g_sig.size] + 1j * c[2 * n_rho + g_sig.size :]
        return gr, gs.reshape(g_sig.shape)

    step, k, improving, stopped = 0.1, 0, 0, False
    for _ in range(refine_steps):
        idx = k % coords.size
        k += 1
        improved = False
        for delta in (step, -step):
            trial_c = coords.copy()
            trial_c[idx] += delta
            val = score(*unpack(trial_c))
            if val < gap:
                gap, coords = val, trial_c
                improved = True
                improving += 1
                break
        if not improved and idx == coords.size - 1:
            step *= 0.5
            if step < 1e-6:
                stopped = True
                break
    rho, sig = _states_from_factors(*unpack(coords))
    return gap, rho, sig, improving, stopped


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

    @pytest.mark.parametrize(
        "chan, rhs, gap",
        [
            (partial_trace_channel(2, 2), 0.9999999999999998, math.inf),
            (identity_channel(4), math.inf, math.nan),
        ],
        ids=["input-side-only", "both-sides"],
    )
    def test_infinite_gap_rule(self, chan, rhs, gap):
        # supp(rho) leaves supp(sigma), so the input side diverges at alpha 2;
        # tracing out B maps rho into supp(sigma_A), the identity does not
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sig = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        rep = dpi_check(rho, sig, chan, 2.0)
        assert rep.lhs.value == math.inf and rep.lhs.support_case == "overlapping"
        assert rep.rhs.value == rhs
        np.testing.assert_equal(rep.gap, gap)

    def test_image_of_a_checked_pair_is_not_checked_again(self):
        # rho's kernel eigenvalues sit inside the negative floor, but their
        # sum, in the image, lies 14 times below it; srd, the certificate and
        # the recovery map all accept this pair, and so does dpi_check
        rho = np.diag([1 / 16] * 16 + [-0.9e-10] * 16).astype(complex)
        sig = np.eye(32, dtype=complex) / 32
        chan = partial_trace_channel(2, 16)
        rep = dpi_check(rho, sig, chan, 2.0)
        assert rep.lhs == srd(rho, sig, 2.0)
        assert rep.gap == 0.0


class TestEqualityResidual:
    @pytest.mark.parametrize("eq_tol", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize(
        "route",
        [
            lambda r, s, tol: equality_residual(r, s, identity_channel(4), 2.0, tol),
            lambda r, s, tol: equality_residual_stinespring(
                r, s, identity_channel(4), 2.0, tol
            ),
            lambda r, s, tol: equality_residual_partial_trace(r, s, 2, 2, 2.0, tol),
        ],
        ids=["kraus", "stinespring", "partial-trace"],
    )
    def test_rejects_bad_tolerance(self, route, eq_tol):
        rho, sig = random_density(4, 4, 1), random_density(4, 4, 2)
        with pytest.raises(ValueError, match="eq_tol"):
            route(rho, sig, eq_tol)

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

    def test_operators_bit_identical_to_per_operator_products(self):
        for t in range(20):
            rng = substream(520, t)
            chan = _valid_random_channel(rng)
            sig = random_density(chan.dim_in, int(rng.integers(1, chan.dim_in + 1)), rng)
            rec = petz_recovery(sig, chan)
            root = matrix_power_on_support(sig, 0.5)
            # the output anchor is formed by the library, which decomposes it bare
            inv_root = _bare_eig(apply(chan, sig)).on_support(lambda lam: lam**-0.5)
            want = [root @ k.conj().T @ inv_root for k in chan.kraus]
            assert np.array_equal(rec.channel.kraus, want)

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
    def test_non_finite_rho_raises(self):
        rho = np.full((2, 2), math.nan)
        with pytest.raises(NonFiniteInput):
            sufficiency_test(rho, random_density(2, 2, 1), identity_channel(2))

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

    def test_rejects_fractional_refine_steps(self):
        with pytest.raises(TypeError):
            dpi_violation_search(0.3, trials=10, seed=0, refine_steps=2.5)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            dpi_violation_search(0.3, trials=trials, seed=0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_batched_gaps_equal_per_pair_gaps(self, monkeypatch, alpha):
        # two stacks, the second one partial: every sampled gap must equal
        # the gap of its pair evaluated alone by the public, classified srd,
        # bit for bit
        trials, seed = _SEARCH_BATCH + 44, 531
        batched = []

        def recording_gap(rho, sig, a):
            gaps = _two_qubit_gap(rho, sig, a)
            batched.extend(gaps.tolist())
            return gaps

        monkeypatch.setattr("qrenyi.dpi._two_qubit_gap", recording_gap)
        res = dpi_violation_search(alpha, trials, seed, refine_steps=0)
        single = [
            _srd_gap(*_states_from_factors(*_draw_factors(seed, t)), alpha)
            for t in range(trials)
        ]
        assert batched == single
        assert res.gap == min(single)
        rho, sig = _states_from_factors(*_draw_factors(seed, single.index(min(single))))
        assert np.array_equal(res.rho_ab, rho) and np.array_equal(res.sigma_ab, sig)

    def test_sampling_decomposes_each_stack_once(self, count_calls):
        calls = count_calls(np.linalg, "eigh")
        dpi_violation_search(0.3, 1000, 532, refine_steps=0)
        # sigma and the sandwich on each side of the partial trace
        assert len(calls) == 4 * math.ceil(1000 / _SEARCH_BATCH)

    @pytest.mark.parametrize(
        "alpha, seed, refine_steps",
        [(0.3, 1, 200), (0.3, 2, 50), (0.3, 3, 200), (0.5, 1, 200), (0.5, 4, 200)],
    )
    def test_stacked_refinement_equals_one_step_at_a_time(
        self, alpha, seed, refine_steps
    ):
        gap, rho, sig, _, _ = _search_one_step_at_a_time(alpha, 40, seed, refine_steps)
        res = dpi_violation_search(alpha, 40, seed, refine_steps)
        assert res.gap == gap
        assert np.array_equal(res.rho_ab, rho) and np.array_equal(res.sigma_ab, sig)

    def test_stacked_refinement_stops_where_one_step_at_a_time_does(self):
        # rank-1 factors: 16 coordinates, so the step falls below 1e-6
        # well inside 2,000 steps
        gap, rho, sig, _, stopped = _search_one_step_at_a_time(0.3, 40, 0, 2000)
        assert stopped
        res = dpi_violation_search(0.3, 40, 0, 2000)
        assert res.rho_ab.shape == (4, 4) and np.linalg.matrix_rank(res.rho_ab) == 1
        assert res.gap == gap
        assert np.array_equal(res.rho_ab, rho) and np.array_equal(res.sigma_ab, sig)

    @pytest.mark.parametrize("alpha, seed", [(0.3, 1), (0.5, 4)])
    def test_refinement_scores_steps_ahead_in_stacks(self, monkeypatch, alpha, seed):
        trials, refine_steps, calls = 40, 200, []

        def counting_gap(rho, sig, a):
            calls.append(None)
            return _two_qubit_gap(rho, sig, a)

        monkeypatch.setattr("qrenyi.dpi._two_qubit_gap", counting_gap)
        dpi_violation_search(alpha, trials, seed, refine_steps)
        improving = _search_one_step_at_a_time(alpha, trials, seed, refine_steps)[3]
        refinement_calls = len(calls) - math.ceil(trials / _SEARCH_BATCH)
        assert refinement_calls <= improving + math.ceil(refine_steps / _REFINE_AHEAD)

    @pytest.mark.parametrize("alpha, seed", [(0.3, 1), (0.5, 4)])
    def test_refinement_falls_back_to_one_at_a_time(self, monkeypatch, alpha, seed):
        def refusing_gap(rho, sig, a):
            if rho.ndim == 3 and 1 < len(rho) <= 2 * _REFINE_AHEAD:
                raise ValueError("refused stack")
            return _two_qubit_gap(rho, sig, a)

        monkeypatch.setattr("qrenyi.dpi._two_qubit_gap", refusing_gap)
        gap, rho, sig, _, _ = _search_one_step_at_a_time(alpha, 40, seed, 200)
        res = dpi_violation_search(alpha, 40, seed, 200)
        assert res.gap == gap
        assert np.array_equal(res.rho_ab, rho) and np.array_equal(res.sigma_ab, sig)

    def test_refinement_raises_where_one_step_at_a_time_does(self):
        # at alpha = 0.1 the trace functional underflows on a refined pair
        with pytest.raises(ValueError, match="underflows") as want:
            _search_one_step_at_a_time(0.1, 40, 39, 200)
        with pytest.raises(ValueError, match="underflows") as got:
            dpi_violation_search(0.1, 40, 39, 200)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.diag([np.nan, 0.5, 0.25, 0.25]), NonFiniteInput),
            (np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) / 10, NonHermitianInput),
            (np.diag([0.6, 0.6, -0.2, 0.0]), NegativeEigenvalue),
        ],
        ids=["nan", "non-hermitian", "negative"],
    )
    def test_bad_stack_member_raises_as_alone(self, bad, error):
        good = random_density(4, 4, 533)
        # the search forms its own stacks and never checks them; a caller's
        # matrix is checked alone
        with pytest.raises(error):
            srd(bad.astype(complex), good, 0.3)


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

    @property_settings
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_order_half_equals_minus_two_log_fidelity(self, d, seed):
        # linalg.fidelity is an SVD route that shares no code with the sandwich
        rng = np.random.default_rng(seed)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, int(rng.integers(1, d + 1)), rng)
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
            (lambda r, s, ch: equality_residual_stinespring(r, s, ch, 2.0), 5),
            (lambda r, s, ch: equality_residual_partial_trace(r, s, 2, 2, 2.0), 5),
            (lambda r, s, ch: q_tilde(r, s, 2.0), 3),
            (lambda r, s, ch: h_hat(r, s, 2.0), 3),
            (lambda r, s, ch: fidelity_attaining_povm(r, s), 3),
            (lambda r, s, ch: check_saturation_conditions(BipartiteState(r, 2, 2)), 3),
            # rho once, N(rho) once
            (
                lambda r, s, ch: fe_equality_check(
                    random_density(2, 2, 1), amplitude_damping(0.3)
                ),
                2,
            ),
        ],
        ids=[
            "srd",
            "dpi_check",
            "equality_residual",
            "qre",
            "rre",
            "d_max",
            "fuchs",
            "equality_residual_stinespring",
            "equality_residual_partial_trace",
            "q_tilde",
            "h_hat",
            "fidelity_attaining_povm",
            "check_saturation_conditions",
            "fe_equality_check",
        ],
    )
    def test_eigendecompositions_per_call(self, count_calls, op, expected):
        rho = random_density(4, 4, 611)
        sig = random_density(4, 4, 612)
        chan = partial_trace_channel(2, 2)
        calls = count_calls(np.linalg, "eigh")
        op(rho, sig, chan)
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "op, inputs",
        [
            (lambda r, s, h, ch: srd(r, s, 2.0), "rs"),
            # the images, formed from the checked pair, are classified bare
            (lambda r, s, h, ch: dpi_check(r, s, ch, 2.0), "rs"),
            (lambda r, s, h, ch: equality_residual(r, s, ch, 2.0), "rs"),
            (lambda r, s, h, ch: equality_residual_stinespring(r, s, ch, 2.0), "rs"),
            (lambda r, s, h, ch: equality_residual_partial_trace(r, s, 2, 2, 2.0), "rs"),
            (lambda r, s, h, ch: petz_recovery(s, ch), "s"),
            (lambda r, s, h, ch: sufficiency_test(r, s, ch), "rs"),
            (lambda r, s, h, ch: fe_equality_check(r, identity_channel(4)), "r"),
            (lambda r, s, h, ch: entanglement_fidelity(r, identity_channel(4)), "r"),
            (lambda r, s, h, ch: check_density(r), "r"),
            (lambda r, s, h, ch: fidelity_attaining_povm(r, s), "rs"),
            (lambda r, s, h, ch: f_alpha(h, r, s, 2.0), "hrs"),
            (lambda r, s, h, ch: fuchs_caves_observable(r, s), "rs"),
        ],
        ids=[
            "srd",
            "dpi_check",
            "equality_residual",
            "equality_residual_stinespring",
            "equality_residual_partial_trace",
            "petz_recovery",
            "sufficiency_test",
            "fe_equality_check",
            "entanglement_fidelity",
            "check_density",
            "fidelity_attaining_povm",
            "f_alpha",
            "fuchs_caves_observable",
        ],
    )
    def test_checks_only_the_inputs(self, count_calls, op, inputs):
        # operators the call forms itself are decomposed bare, so
        # check_hermitian sees exactly the matrix arguments, each once, in order
        import qrenyi.linalg as linalg

        args = {
            "r": random_density(4, 4, 611),
            "s": random_density(4, 4, 612),
            "h": random_density(4, 4, 614),
        }
        checks = count_calls(linalg, "check_hermitian")
        op(args["r"], args["s"], args["h"], partial_trace_channel(2, 2))
        assert len(checks) == len(inputs)
        for (checked, *_), name in zip(checks, inputs):
            assert np.array_equal(checked, args[name]), name

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


class TestSupportCases:
    """One rule decides where the trace functional is undefined: ``srd`` and
    ``rre`` read inf exactly where ``q_tilde``, ``h_hat`` and the three
    certificate routes raise, and those raise the same class."""

    # sigma against rho = diag(1/2, 1/2, 0, 0) on 2 (x) 2
    SIGMAS = {
        "contained": [0.25, 0.25, 0.25, 0.25],
        "overlapping": [0.5, 0.0, 0.5, 0.0],
        "disjoint": [0.0, 0.0, 0.5, 0.5],
    }
    EXPECTED = {
        ("contained", 0.75): None,
        ("overlapping", 0.75): None,
        ("disjoint", 0.75): DisjointSupports,
        ("contained", 2.0): None,
        ("overlapping", 2.0): SupportViolation,
        ("disjoint", 2.0): SupportViolation,
    }

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    @pytest.mark.parametrize("case", ["contained", "overlapping", "disjoint"])
    def test_inf_exactly_where_the_functional_raises(self, case, alpha):
        u = random_unitary(4, substream(531))
        rho = u @ np.diag([0.5, 0.5, 0.0, 0.0]) @ u.conj().T
        sig = u @ np.diag(self.SIGMAS[case]) @ u.conj().T
        chan = partial_trace_channel(2, 2)
        expected = self.EXPECTED[case, alpha]
        assert classify_supports(rho, sig) == case
        for div in (srd, rre):
            assert (div(rho, sig, alpha).value == math.inf) == (expected is not None)
        raising = [
            lambda: q_tilde(rho, sig, alpha),
            lambda: h_hat(rho, sig, alpha),
            lambda: equality_residual(rho, sig, chan, alpha),
            lambda: equality_residual_stinespring(rho, sig, chan, alpha),
            lambda: equality_residual_partial_trace(rho, sig, 2, 2, alpha),
        ]
        for fn in raising:
            if expected is None:
                fn()
            else:
                with pytest.raises(expected):
                    fn()


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

    @property_settings
    @given(
        st.sampled_from(["random", "unitary", "product-trace", "trace-2x2"]),
        st.integers(0, 2**32 - 1),
        orders,
    )
    def test_certificate_routes_agree(self, kind, seed, alpha):
        rng = np.random.default_rng(seed)
        if kind == "random":
            rho, sigma, lam = _random_triple(rng, 4)
        elif kind == "trace-2x2":
            rho = random_density(4, int(rng.integers(1, 5)), rng)
            sigma = random_density(4, 4, rng)
            lam = partial_trace_channel(2, 2)
        else:
            rho, sigma, lam = _constructed_equality_instance(rng, kind)
        certs = [
            equality_residual(rho, sigma, lam, alpha),
            equality_residual_stinespring(rho, sigma, lam, alpha),
        ]
        if kind in ("product-trace", "trace-2x2"):
            dim_a = lam.dim_out
            dim_b = lam.dim_in // dim_a
            certs.append(
                equality_residual_partial_trace(rho, sigma, dim_a, dim_b, alpha)
            )
        for cert in certs[1:]:
            assert abs(cert.residual - certs[0].residual) <= 1e-9
            assert cert.verdict == certs[0].verdict
