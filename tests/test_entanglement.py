import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrenyi.entanglement as entanglement
from qrenyi.channels import (
    amplitude_damping,
    apply,
    depolarizing,
    identity_channel,
    random_channel,
)
from qrenyi.divergences import (
    conditional_entropy,
    conditional_renyi,
    duality_gap,
    renyi_entropy,
    von_neumann_entropy,
)
from qrenyi.entanglement import (
    SaturatingSpec,
    araki_lieb_renyi,
    check_saturation_conditions,
    entanglement_fidelity,
    eof_lower_bound,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
    saturating_state,
)
from qrenyi.errors import DimensionTooSmall, NegativeEigenvalue, PrecisionLoss
from qrenyi.linalg import fidelity, max_abs, partial_trace, tensor
from qrenyi.states import (
    BipartiteState,
    RankProfile,
    maximally_mixed,
    projector,
    purify,
    random_density,
    random_pure,
    random_unitary,
    rank_profile,
    substream,
)


def bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(projector(phi), 2, 2)


def generic_saturating():
    spec = SaturatingSpec(2, 2, np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    return saturating_state(spec)


class TestSaturatingState:
    def test_rank_one_is_purification(self):
        spec = SaturatingSpec(2, 1, np.array([1.0]), np.array([0.6, 0.4]))
        st = saturating_state(spec)
        rp = rank_profile(st)
        assert rp.r_ab == 1
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(st.marginal_a())), [0.4, 0.6], atol=1e-12
        )

    def test_rank_profile_2_2_4(self):
        spec = SaturatingSpec(2, 2, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        rp = rank_profile(saturating_state(spec))
        assert (rp.r_ab, rp.r_a, rp.r_b) == (2, 2, 4)

    def test_cross_terms_by_construction(self):
        st = generic_saturating()
        chk = check_saturation_conditions(st)
        assert chk.holds and chk.rank_ok and chk.cross_terms_ok
        assert chk.residual < 1e-12

    def test_degenerate_spectrum_still_passes(self):
        spec = SaturatingSpec(2, 2, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        chk = check_saturation_conditions(saturating_state(spec))
        assert chk.holds

    def test_dimension_too_small(self):
        spec = SaturatingSpec(2, 2, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(DimensionTooSmall):
            saturating_state(spec, dim_b=3)

    def test_generic_state_fails(self):
        st = BipartiteState(random_density(8, 8, 31), 2, 4)
        chk = check_saturation_conditions(st)
        assert not chk.holds

    def test_product_rank_mismatch(self):
        prod = tensor(random_density(2, 2, 1), random_density(2, 2, 2))
        chk = check_saturation_conditions(BipartiteState(prod, 2, 2))
        assert not chk.rank_ok

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_holds_after_unitary_on_b(self, r_a, r_ab, degenerate, seed):
        # the condition does not depend on the basis chosen inside a
        # degenerate eigenspace, so the eigenbasis numpy returns decides it
        rng = np.random.default_rng(seed)

        def spectrum(r):
            if degenerate:
                return np.full(r, 1.0 / r)
            return rng.dirichlet(np.ones(r)) * 0.8 + 0.2 / r

        sat = saturating_state(SaturatingSpec(r_a, r_ab, spectrum(r_ab), spectrum(r_a)))
        u = np.kron(np.eye(sat.dim_a), random_unitary(sat.dim_b, rng))
        turned = BipartiteState(u @ sat.mat @ u.conj().T, sat.dim_a, sat.dim_b)
        chk = check_saturation_conditions(turned)
        assert chk.holds
        assert chk.residual < 1e-12


class TestArakiLieb:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 2.0, 3.0])
    def test_maximally_entangled(self, alpha):
        rep = araki_lieb_renyi(bell_state(), alpha)
        assert abs(rep.lower + 1.0) < 1e-10
        assert abs(rep.value + 1.0) < 2e-6
        assert abs(rep.upper - 1.0) < 1e-10

    def test_product_state_hits_upper(self):
        rng = substream(601)
        rho_a = random_density(2, 2, rng)
        st = BipartiteState(tensor(rho_a, random_density(2, 2, rng)), 2, 2)
        rep = araki_lieb_renyi(st, 2.0)
        assert abs(rep.value - rep.upper) < 2e-6
        expected_residual = renyi_entropy(rho_a, 2.0) + renyi_entropy(rho_a, rep.beta)
        assert abs(rep.saturation_residual - expected_residual) < 2e-6

    @pytest.mark.parametrize("alpha", [0.75, 2.0, 3.0])
    def test_saturating_state_hits_lower(self, alpha):
        rep = araki_lieb_renyi(generic_saturating(), alpha)
        assert rep.saturation_residual <= 1e-5

    def test_sandwich_battery(self):
        for t in range(30):
            rng = substream(602, t)
            if t % 2 == 0:
                st = BipartiteState(random_density(4, int(rng.integers(1, 5)), rng), 2, 2)
            else:
                st = BipartiteState(random_density(6, int(rng.integers(1, 7)), rng), 2, 3)
            alpha = (0.5, 0.75, 2.0, 3.0)[t % 4]
            rep = araki_lieb_renyi(st, alpha)
            assert rep.lower - 2e-6 <= rep.value <= rep.upper + 2e-6

    def test_failed_condition_implies_residual(self):
        # states clearly violating the spectral condition stay away from
        # the lower bound
        for t in range(5):
            rng = substream(603, t)
            st = BipartiteState(random_density(4, 4, rng), 2, 2)
            chk = check_saturation_conditions(st)
            assert chk.residual >= 1e-2
            rep = araki_lieb_renyi(st, 2.0)
            assert rep.saturation_residual >= 1e-4


class TestEofBounds:
    def test_product_is_zero(self):
        rng = substream(604)
        st = BipartiteState(tensor(random_density(2, 2, rng), random_density(2, 2, rng)), 2, 2)
        assert eof_lower_bound(st) == 0.0
        assert reof_lower_bound(st, 2.0) < 1e-6

    def test_maximally_entangled_is_one(self):
        assert abs(eof_lower_bound(bell_state()) - 1.0) < 1e-9
        assert abs(reof_lower_bound(bell_state(), 2.0) - 1.0) < 2e-6

    def test_thm_saturating_state_gives_marginal_entropies(self):
        st = generic_saturating()
        assert abs(eof_lower_bound(st) - von_neumann_entropy(st.marginal_a())) < 1e-9
        assert abs(reof_lower_bound(st, 2.0) - renyi_entropy(st.marginal_a(), 2.0)) < 1e-5

    def test_alpha_to_one_consistency(self):
        for t in range(5):
            rng = substream(605, t)
            st = BipartiteState(random_density(4, int(rng.integers(1, 5)), rng), 2, 2)
            near_one = reof_lower_bound(st, 1.0 + 1e-4)
            assert abs(near_one - eof_lower_bound(st)) <= 1e-3

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            reof_lower_bound(bell_state(), 0.9)

    def test_matches_the_conditional_entropies(self):
        # max(S(A), S(B)) - S(AB) from the state's three spectra is
        # max(-S(A|B), -S(B|A), 0), with S(B|A) taken on the swapped state
        for dims in [(2, 2), (2, 3), (3, 2)]:
            for t in range(20):
                rng = substream(617, dims[0], dims[1], t)
                d = dims[0] * dims[1]
                rho = random_density(d, int(rng.integers(1, d + 1)), rng)
                st = BipartiteState(rho, *dims)
                old = max(-conditional_entropy(st), -conditional_entropy(st.swapped()), 0.0)
                assert abs(eof_lower_bound(st) - old) <= 1e-14

    def test_decomposes_the_two_marginals_only(self, count_calls):
        st = BipartiteState(random_density(4, 3, 937), 2, 2)
        calls = count_calls(np.linalg, "eigh")
        eof_lower_bound(st)
        assert len(calls) == 2


class TestReofMinimize:
    def test_pure_state_single_element(self):
        rng = substream(606)
        psi = random_pure(4, rng)
        st = BipartiteState(projector(psi), 2, 2)
        value, ensemble = reof_minimize(st, 2.0, restarts=1, seed=1)
        rho_a = st.marginal_a()
        assert abs(value - renyi_entropy(rho_a, 2.0)) < 1e-9
        assert len(ensemble.states) == 1

    def test_maximally_entangled(self):
        value, _ = reof_minimize(bell_state(), 2.0, restarts=1, seed=1)
        assert abs(value - 1.0) < 1e-6

    def test_separable_diagonal_mixture(self):
        rng = substream(607)
        st = BipartiteState(
            tensor(random_density(2, 2, rng), random_density(2, 2, rng)), 2, 2
        )
        value, ensemble = reof_minimize(st, 2.0, ensemble_size=8, restarts=1, seed=1)
        assert abs(value) < 1e-8
        assert max_abs(ensemble.reconstruct() - st.mat) < 1e-9

    def test_saturating_state_meets_bound(self):
        st = generic_saturating()
        value, ensemble = reof_minimize(st, 2.0, restarts=1, seed=2)
        target, _ = conditional_renyi(st, 2.0 / 3.0)
        assert abs(value - (-target)) < 1e-4
        lower = reof_lower_bound(st, 2.0)
        assert value >= lower - 1e-6
        assert max_abs(ensemble.reconstruct() - st.mat) < 1e-9

    def test_value_never_below_lower_bound(self):
        for t in range(4):
            rng = substream(608, t)
            st = BipartiteState(random_density(4, 2, rng), 2, 2)
            value, _ = reof_minimize(st, 2.0, restarts=1, seed=t)
            assert value >= reof_lower_bound(st, 2.0) - 1e-6

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0, 3.0])
    def test_value_is_the_returned_ensembles_entropy(self, alpha):
        # the Schmidt-spectrum objective against the projector route
        dim_a = 2
        shapes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
        for t, (dim_b, rank) in enumerate(shapes):
            rng = substream(615, t)
            st = BipartiteState(random_density(dim_a * dim_b, rank, rng), dim_a, dim_b)
            value, ensemble = reof_minimize(st, alpha, restarts=0)
            recomputed = sum(
                w * renyi_entropy(partial_trace(projector(psi), dim_a, dim_b, "A"), alpha)
                for w, psi in zip(ensemble.weights, ensemble.states)
            )
            assert abs(value - recomputed) < 1e-10
            explicit = sum(
                w * projector(psi) for w, psi in zip(ensemble.weights, ensemble.states)
            )
            assert max_abs(ensemble.reconstruct() - explicit) < 1e-12

    def test_one_eigendecomposition_per_call(self, count_calls):
        # the state's own decomposition; the objective and the polar factor
        # run on singular values alone
        calls = count_calls(np.linalg, "eigh")
        reof_minimize(BipartiteState(random_density(4, 2, 616), 2, 2), 2.0, restarts=1)
        assert len(calls) == 1

    def test_ensemble_size_must_cover_rank(self):
        with pytest.raises(ValueError):
            reof_minimize(BipartiteState(random_density(4, 3, 0), 2, 2), 2.0, ensemble_size=2)

    def test_rejects_negative_restarts(self):
        state = BipartiteState(random_density(4, 4, 5), 2, 2)
        with pytest.raises(ValueError, match="restarts must be >= 0, got -3"):
            reof_minimize(state, 2.0, restarts=-3)

    def test_rejects_empty_ensemble(self):
        state = BipartiteState(random_density(4, 4, 5), 2, 2)
        with pytest.raises(ValueError, match="ensemble_size must be >= 1, got -5"):
            reof_minimize(state, 2.0, ensemble_size=-5)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan])
    def test_rejects_meaningless_orders(self, alpha):
        state = BipartiteState(random_density(4, 2, 616), 2, 2)
        with pytest.raises(ValueError, match=f"alpha must be non-negative, got {alpha}"):
            reof_minimize(state, alpha)

    @staticmethod
    def _objective(monkeypatch, state, alpha, ensemble_size):
        """The objective of restart 0, which returns ``(value, gradient)``,
        and its start; the minimization itself is not run."""

        class Captured(Exception):
            pass

        def capturing_minimize(fun, x0, **kwargs):
            raise Captured(fun, x0)

        monkeypatch.setattr(entanglement, "minimize", capturing_minimize)
        with pytest.raises(Captured) as caught:
            reof_minimize(state, alpha, ensemble_size=ensemble_size)
        return caught.value.args

    @pytest.mark.parametrize("alpha", [0.0, 0.75, 1.0, 2.0, 3.0, math.inf])
    def test_gradient_matches_central_differences(self, monkeypatch, alpha):
        # restart 0 starts where every singular value of the mixing is 1;
        # an ensemble two larger than the rank exercises the part of the
        # polar factor's adjoint off the isometry's range
        for dim_a, dim_b in [(2, 2), (2, 3), (3, 2)]:
            for rank in range(1, dim_a * dim_b + 1):
                rng = substream(617, dim_a, dim_b, rank)
                mat = random_density(dim_a * dim_b, rank, rng)
                state = BipartiteState(mat, dim_a, dim_b)
                fun, start = self._objective(monkeypatch, state, alpha, rank + 2)
                for x in (start, start + 0.3 * rng.normal(size=start.size)):
                    grad = fun(x)[1]
                    steps = 1e-6 * np.eye(x.size)
                    central = [(fun(x + e)[0] - fun(x - e)[0]) / 2e-6 for e in steps]
                    scale = max(1.0, float(np.max(np.abs(grad))))
                    assert np.max(np.abs(np.array(central) - grad)) <= 1e-6 * scale

    def test_flat_objectives_stop_at_once(self, monkeypatch):
        # restart 0 starts at a minimum on both: every ensemble of a
        # saturating state has the same value, and a product state's
        # eigen-ensemble is product, at value 0; the gradient is 0 there
        runs = []

        def recording_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            runs.append(res)
            return res

        minimize = entanglement.minimize
        monkeypatch.setattr(entanglement, "minimize", recording_minimize)
        rng = substream(618)
        product = tensor(random_density(2, 2, rng), random_density(2, 2, rng))
        reof_minimize(BipartiteState(product, 2, 2), 2.0, ensemble_size=8, restarts=1)
        reof_minimize(generic_saturating(), 2.0, restarts=1)
        assert all(res.success for res in runs)
        assert [res.nfev for res in runs[::2]] == [1, 1]
        assert sum(res.nfev for res in runs) <= 60


property_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


class TestReofProperties:
    @property_settings
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2)]),
        st.integers(0, 2**32 - 1),
        st.floats(1.1, 5.0),
    )
    def test_never_below_lower_bound(self, dims, seed, alpha):
        # the paper's general bound on the Renyi entanglement of formation
        rng = np.random.default_rng(seed)
        d = dims[0] * dims[1]
        state = BipartiteState(random_density(d, int(rng.integers(1, d + 1)), rng), *dims)
        value, _ = reof_minimize(state, alpha, restarts=0)
        assert value >= reof_lower_bound(state, alpha) - 1e-6


class TestEntanglementFidelity:
    def test_non_positive_input_raises(self):
        with pytest.raises(NegativeEigenvalue):
            entanglement_fidelity(np.diag([2.0, -1.0]), identity_channel(2))

    def test_identity_channel(self):
        rng = substream(609)
        rho = random_density(3, 2, rng)
        assert abs(entanglement_fidelity(rho, identity_channel(3)) - 1.0) < 1e-12

    def test_depolarized_maximally_mixed(self):
        got = entanglement_fidelity(maximally_mixed(2), depolarizing(2, 1.0))
        assert abs(got - 0.25) < 1e-10

    def test_pure_state_equals_fidelity_squared(self):
        for t in range(10):
            rng = substream(610, t)
            psi = projector(random_pure(3, rng))
            chan = random_channel(3, 3, 2, rng)
            fe = entanglement_fidelity(psi, chan)
            assert abs(fe - fidelity(psi, apply(chan, psi)) ** 2) < 1e-10

    def test_two_routes_agree(self):
        # direct sandwich vs fidelity-squared of purifications
        for t in range(10):
            rng = substream(611, t)
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            chan = random_channel(3, 3, 2, rng)
            fe = entanglement_fidelity(rho, chan)
            psi, r = purify(rho)
            big = projector(psi)
            out = np.zeros_like(big)
            for k in chan.kraus:
                kk = np.kron(k, np.eye(r))
                out += kk @ big @ kk.conj().T
            route2 = fidelity(big, out) ** 2
            assert abs(fe - route2) < 1e-10

    def test_purification_independence(self):
        for t in range(5):
            rng = substream(612, t)
            rho = random_density(3, 2, rng)
            chan = random_channel(3, 3, 2, rng)
            psi, r = purify(rho)
            w = random_unitary(r, rng)
            alt = np.kron(np.eye(3), w) @ psi
            # overlap of the alternative purification with its image
            overlap = sum(
                abs(np.vdot(alt, np.kron(k, np.eye(r)) @ alt)) ** 2 for k in chan.kraus
            )
            assert abs(entanglement_fidelity(rho, chan) - overlap) < 1e-10

    def test_bound_gap_pure_vs_mixed(self):
        rng = substream(613)
        rep = fe_equality_check(projector(random_pure(2, rng)), amplitude_damping(0.3))
        assert rep.is_pure and abs(rep.bound_gap) <= 1e-10
        rep = fe_equality_check(maximally_mixed(2), depolarizing(2, 1.0))
        assert not rep.is_pure
        assert abs(rep.bound_gap - 0.75) < 1e-10

    def test_mixed_states_have_strict_gap(self):
        for t in range(15):
            rng = substream(614, t)
            d = int(rng.integers(2, 4))
            rho = random_density(d, int(rng.integers(2, d + 1)), rng)
            chan = random_channel(d, d, int(rng.integers(1, 4)), rng)
            rep = fe_equality_check(rho, chan)
            assert rep.bound_gap > 1e-4


class TestNonPositiveState:
    """A joint matrix with a negative eigenvalue raises when its state is
    made (or when purified), before the fixed point, the minimizer or the
    purification could drop it."""

    BAD = np.diag([0.6, -0.1, 0.1, 0.4]).astype(complex)

    @pytest.mark.parametrize(
        "op",
        [
            lambda m: conditional_renyi(BipartiteState(m, 2, 2), 2.0),
            lambda m: conditional_renyi(BipartiteState(m, 2, 2), 1.0),
            lambda m: araki_lieb_renyi(BipartiteState(m, 2, 2), 2.0),
            lambda m: reof_minimize(BipartiteState(m, 2, 2), 2.0, restarts=0),
            lambda m: purify(m),
        ],
        ids=["conditional_renyi", "order_1", "araki_lieb", "reof", "purify"],
    )
    def test_raises_negative_eigenvalue(self, op):
        with pytest.raises(NegativeEigenvalue):
            op(self.BAD)


class TestZeroState:
    """The zero state has empty support: every entropy of it raises
    PrecisionLoss, at every order, before the fixed point or the minimizer
    could run on it."""

    ZERO = BipartiteState(np.zeros((4, 4)), 2, 2)

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
    @pytest.mark.parametrize(
        "op",
        [
            conditional_renyi,
            duality_gap,
            araki_lieb_renyi,
            lambda st, a: reof_lower_bound(st, a + 1.0),
            lambda st, a: reof_minimize(st, a, restarts=0),
        ],
        ids=["conditional_renyi", "duality_gap", "araki_lieb", "reof_bound", "reof"],
    )
    def test_raises_precision_loss(self, op, alpha):
        with pytest.raises(PrecisionLoss):
            op(self.ZERO, alpha)


class TestRoundoffMarginal:
    """The state passes its negative floor, -1e-10; its A marginal, a
    partial trace formed from it, has an eigenvalue of -1.8e-10, roundoff
    of 0 that the support rule drops."""

    STATE = BipartiteState(np.diag([0.5, 0.5 + 1.8e-10, -0.9e-10, -0.9e-10]), 2, 2)

    def test_rank_profile(self):
        assert rank_profile(self.STATE) == RankProfile(2, 1, 2)

    @pytest.mark.parametrize(
        "op",
        [
            lambda st: araki_lieb_renyi(st, 2.0),
            check_saturation_conditions,
            eof_lower_bound,
            lambda st: reof_lower_bound(st, 2.0),
        ],
        ids=["araki_lieb", "saturation", "eof", "reof"],
    )
    def test_returns(self, op):
        op(self.STATE)
