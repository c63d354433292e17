import numpy as np
import pytest

from qrenyi.channels import (
    QuantumChannel,
    amplitude_damping,
    apply,
    apply_adjoint,
    completely_dephasing,
    depolarizing,
    identity_channel,
    measurement_channel,
    partial_trace_channel,
    pinching_channel,
    random_channel,
    stinespring,
    unitary_channel,
)
from qrenyi.errors import (
    DimensionMismatch,
    IncompletePOVM,
    IncompleteResolution,
    NegativeEigenvalue,
    NonFiniteInput,
)
from qrenyi.linalg import max_abs, tensor
from qrenyi.states import (
    maximally_mixed,
    random_density,
    random_unitary,
    substream,
)

from conftest import random_hermitian_from


def _random_valid_channel(rng, dmax=6):
    d_in = int(rng.integers(2, dmax + 1))
    d_out = int(rng.integers(2, dmax + 1))
    kc = int(rng.integers(1, 4))
    while kc * d_out < d_in:
        kc += 1
    return random_channel(d_in, d_out, kc, rng)


class TestApply:
    def test_identity(self, rng):
        rho = random_density(3, 3, rng)
        assert max_abs(apply(identity_channel(3), rho) - rho) < 1e-14

    def test_depolarizing_to_maximally_mixed(self, rng):
        rho = random_density(2, 2, rng)
        out = apply(depolarizing(2, 1.0), rho)
        assert max_abs(out - maximally_mixed(2)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_depolarizing_formula(self, d):
        rng = substream(306, d)
        m = random_hermitian_from(rng, d)
        for p in (0.0, 0.3, 1.0):
            chan = depolarizing(d, p)
            assert len(chan.kraus) == d * d + 1
            expected = (1.0 - p) * m + p * np.trace(m) * np.eye(d) / d
            assert max_abs(apply(chan, m) - expected) < 1e-12

    @pytest.mark.parametrize("d, p", [(0, 0.5), (2, 1.5), (2, -0.5)])
    def test_depolarizing_rejects_out_of_range(self, d, p):
        with pytest.raises(ValueError):
            depolarizing(d, p)

    def test_full_damping_on_mixed(self):
        out = apply(amplitude_damping(1.0), maximally_mixed(2))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_trace_preserved(self):
        for t in range(30):
            rng = substream(301, t)
            chan = _random_valid_channel(rng)
            rho = random_density(chan.dim_in, chan.dim_in, rng)
            out = apply(chan, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(identity_channel(2), np.eye(3, dtype=complex) / 3)

    def test_not_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            QuantumChannel([np.eye(2, dtype=complex) * 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(NonFiniteInput):
            QuantumChannel([k])
        with pytest.raises(NonFiniteInput):
            QuantumChannel([k], require_tp=False)


class TestAdjoint:
    def test_unitary_adjoint(self, rng):
        u = random_unitary(3, rng)
        y = random_hermitian_from(rng, 3)
        out = apply_adjoint(unitary_channel(u), y)
        assert max_abs(out - u.conj().T @ y @ u) < 1e-12

    def test_partial_trace_adjoint_is_tensor_with_identity(self, rng):
        y = random_hermitian_from(rng, 2)
        chan = partial_trace_channel(2, 3, keep="A")
        out = apply_adjoint(chan, y)
        assert max_abs(out - tensor(y, np.eye(3))) < 1e-12

    def test_pairing_identity_battery(self):
        # module invariant: 500 random triples, dims <= 6
        for t in range(500):
            rng = substream(302, t)
            chan = _random_valid_channel(rng)
            x = random_hermitian_from(rng, chan.dim_in)
            y = random_hermitian_from(rng, chan.dim_out)
            lhs = np.trace(apply_adjoint(chan, y).conj().T @ x)
            rhs = np.trace(y.conj().T @ apply(chan, x))
            assert abs(lhs - rhs) < 1e-10

    def test_unital(self):
        for t in range(20):
            rng = substream(303, t)
            chan = _random_valid_channel(rng)
            out = apply_adjoint(chan, np.eye(chan.dim_out, dtype=complex))
            assert max_abs(out - np.eye(chan.dim_in)) < 1e-10


class TestStinespring:
    def test_identity_channel(self):
        dil = stinespring(identity_channel(2))
        assert max_abs(dil.isometry.conj().T @ dil.isometry - np.eye(2)) < 1e-12
        rho = random_density(2, 2, 5)
        assert max_abs(dil.apply(rho) - rho) < 1e-12

    def test_unitary_channel(self, rng):
        u = random_unitary(3, rng)
        dil = stinespring(unitary_channel(u))
        rho = random_density(3, 3, rng)
        assert max_abs(dil.apply(rho) - u @ rho @ u.conj().T) < 1e-12

    def test_dephasing_environment(self, rng):
        chan = QuantumChannel(
            [
                np.sqrt(0.7) * np.eye(2, dtype=complex),
                np.sqrt(0.3) * np.diag([1.0, -1.0]).astype(complex),
            ]
        )
        dil = stinespring(chan)
        assert dil.dim_hp * dil.dim_k >= 2
        rho = random_density(2, 2, rng)
        assert max_abs(dil.apply(rho) - apply(chan, rho)) < 1e-10

    def test_round_trip_battery(self):
        from qrenyi.linalg import partial_trace

        for t in range(60):
            rng = substream(304, t)
            chan = _random_valid_channel(rng, dmax=4)
            dil = stinespring(chan)
            n = dil.unitary.shape[0]
            assert max_abs(dil.unitary.conj().T @ dil.unitary - np.eye(n)) < 1e-9
            v = dil.isometry
            assert max_abs(v.conj().T @ v - np.eye(chan.dim_in)) < 1e-9
            rho = random_density(chan.dim_in, chan.dim_in, rng)
            assert max_abs(dil.apply(rho) - apply(chan, rho)) < 1e-9
            # isometry route: trace the first two factors of V rho V^dag
            lifted = v @ rho @ v.conj().T
            env = dil.dim_h * dil.dim_hp
            direct = partial_trace(lifted, env, dil.dim_k, keep="B")
            assert max_abs(direct - apply(chan, rho)) < 1e-9
            y = random_hermitian_from(rng, chan.dim_out)
            assert max_abs(dil.apply_adjoint(y) - apply_adjoint(chan, y)) < 1e-9


class TestPinchingAndMeasurement:
    def test_diagonal_matrix_unchanged(self):
        chan = completely_dephasing(3)
        d = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert max_abs(apply(chan, d) - d) < 1e-14

    def test_pauli_x_pinches_to_zero(self):
        chan = completely_dephasing(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert max_abs(apply(chan, x)) < 1e-14

    def test_idempotent(self, rng):
        chan = completely_dephasing(3)
        rho = random_density(3, 3, rng)
        once = apply(chan, rho)
        assert max_abs(apply(chan, once) - once) < 1e-13

    def test_output_commutes_with_projectors(self, rng):
        p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        chan = pinching_channel([p0, p1])
        out = apply(chan, random_density(3, 3, rng))
        for p in (p0, p1):
            assert max_abs(out @ p - p @ out) < 1e-13

    def test_incomplete_resolution(self):
        with pytest.raises(IncompleteResolution):
            pinching_channel([np.diag([1.0, 0.0]).astype(complex)])

    def test_measurement_diagonal(self):
        chan = measurement_channel(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        )
        out = apply(chan, np.diag([0.3, 0.7]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.3, 0.7]), atol=1e-14)

    def test_measurement_output_diagonal(self, rng):
        m = random_density(2, 2, rng) / 2  # generic effect
        chan = measurement_channel([m, np.eye(2) - m])
        out = apply(chan, random_density(2, 2, rng))
        off = out - np.diag(np.diag(out))
        assert max_abs(off) < 1e-12

    def test_incomplete_povm(self):
        with pytest.raises(IncompletePOVM):
            measurement_channel([np.diag([0.5, 0.5]).astype(complex)])

    def test_non_positive_element_raises(self):
        # sums to the identity, so only the positivity check can reject it
        povm = [np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])]
        with pytest.raises(NegativeEigenvalue):
            measurement_channel(povm)


class TestRandomChannel:
    def test_single_kraus_is_unitary(self):
        chan = random_channel(3, 3, 1, 9)
        k = chan.kraus[0]
        assert max_abs(k.conj().T @ k - np.eye(3)) < 1e-10

    def test_trace_preserving_any_seed(self):
        for seed in range(20):
            chan = random_channel(3, 2, 3, seed)
            assert chan.completeness_defect() < 1e-10

    def test_golden_seed_42(self):
        chan = random_channel(2, 2, 2, 42)
        got = complex(chan.kraus[0][0, 0])
        assert abs(got - (-0.4081630999562599 - 0.29213763972571566j)) < 1e-15

    def test_impossible_dimensions_rejected(self):
        with pytest.raises(ValueError):
            random_channel(5, 2, 2, 0)
