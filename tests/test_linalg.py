import importlib
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrenyi.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
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
    trace_norm,
)
from qrenyi.states import maximally_mixed, random_density, random_unitary, substream

from conftest import random_hermitian_from, random_psd_from

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        spec = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0])
        # eigenvectors are the swapped standard basis, up to phase
        assert abs(abs(spec.eigenvectors[1, 0]) - 1.0) < 1e-14
        assert abs(abs(spec.eigenvectors[0, 1]) - 1.0) < 1e-14

    def test_pauli_x(self):
        spec = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus, plus = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
        target = 1.0 / np.sqrt(2.0)
        assert abs(abs(np.vdot([target, -target], minus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot([target, target], plus)) - 1.0) < 1e-12

    def test_reconstruction_battery(self):
        # module invariant: 1000 random Hermitian matrices, dims <= 16
        worst = 0.0
        for t in range(1000):
            rng = substream(101, t)
            d = int(rng.integers(1, 17))
            h = random_hermitian_from(rng, d)
            spec = hermitian_eig(h)
            scale = max(max_abs(h), 1e-30)
            err = max_abs(spec.reconstruct() - h) / (scale * d)
            worst = max(worst, err)
            assert np.all(np.diff(spec.eigenvalues) >= -1e-14)
        assert worst <= 1e-10

    def test_orthonormal_columns(self):
        rng = substream(102)
        h = random_hermitian_from(rng, 9)
        v = hermitian_eig(h).eigenvectors
        assert max_abs(v.conj().T @ v - np.eye(9)) < 1e-12

    def test_eigenvalues_match_lapack(self):
        for t in range(50):
            rng = substream(103, t)
            h = random_hermitian_from(rng, int(rng.integers(2, 13)))
            ours = hermitian_eig(h).eigenvalues
            ref = np.linalg.eigvalsh(h)
            np.testing.assert_allclose(ours, ref, atol=1e-11 * max(1, max_abs(h)))

    def test_deterministic_phases(self):
        rng = substream(104)
        h = random_hermitian_from(rng, 5)
        v1 = hermitian_eig(h).eigenvectors
        v2 = hermitian_eig(h.copy()).eigenvectors
        assert max_abs(v1 - v2) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(NonHermitianInput):
            hermitian_eig(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize(
        "bad",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, 1j * np.inf], [-1j * np.inf, 1.0]],
        ],
    )
    def test_rejects_non_finite_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                hermitian_eig(np.array(bad, dtype=complex))


def _spectral_case(kind, d, seed, log_min):
    """Hermitian test matrix of the named spectral shape; PSD unless random."""
    rng = np.random.default_rng(seed)
    u = random_unitary(d, rng)
    if kind == "random":
        return random_hermitian_from(rng, d)
    if kind == "identity":
        return 10.0**log_min * np.eye(d, dtype=complex)
    if kind == "projector":
        lam = (np.arange(d) < int(rng.integers(1, d + 1))).astype(float)
    elif kind == "rank_deficient":
        return random_psd_from(rng, d, rank=int(rng.integers(1, d + 1)))
    else:  # graded: geometric from 1 down to 10**log_min
        lam = np.logspace(0.0, log_min, d)
    return (u * lam) @ u.conj().T


spectral_cases = st.tuples(
    st.sampled_from(["random", "identity", "projector", "rank_deficient", "graded"]),
    st.integers(1, 32),
    st.integers(0, 2**32 - 1),
    st.floats(-8.0, 0.0),
).map(lambda args: (args[0], _spectral_case(*args)))

spectral_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


class TestSpectralProperties:
    @spectral_settings
    @given(spectral_cases)
    def test_eig_contract(self, case):
        _, h = case
        d = h.shape[0]
        spec = hermitian_eig(h)
        lam, v = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.diff(lam) >= 0.0)
        assert max_abs(v.conj().T @ v - np.eye(d)) < 1e-12
        assert max_abs(spec.reconstruct() - h) <= 1e-10 * max_abs(h)
        mags = np.abs(v)
        for j in range(d):
            top = np.flatnonzero(mags[:, j] >= mags[:, j].max() * (1.0 - 1e-12))
            anchors = v[top, j]
            assert np.any((anchors.real > 0.0) & (np.abs(anchors.imag) <= 1e-15))

    @spectral_settings
    @given(spectral_cases)
    def test_bit_identical_on_copy(self, case):
        _, h = case
        a, b = hermitian_eig(h), hermitian_eig(h.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @spectral_settings
    @given(spectral_cases.filter(lambda case: case[0] != "random"))
    def test_rank_is_trace_of_zeroth_power(self, case):
        _, a = case
        rank = support_of(a).rank
        assert abs(np.trace(matrix_power_on_support(a, 0)).real - rank) < 1e-9


class TestSupport:
    def test_rank_one_diag(self):
        info = support_of(np.diag([1.0, 0.0]).astype(complex))
        assert info.rank == 1
        np.testing.assert_allclose(info.projector, np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity_full_rank(self):
        info = support_of(np.eye(3, dtype=complex))
        assert info.rank == 3
        np.testing.assert_allclose(info.projector, np.eye(3), atol=1e-14)

    def test_cutoff_rule(self):
        info = support_of(np.diag([1.0, 1e-15]).astype(complex))
        assert info.rank == 1

    def test_projector_idempotent(self, rng):
        a = random_psd_from(rng, 6, rank=3)
        info = support_of(a)
        assert info.rank == 3
        assert max_abs(info.projector @ info.projector - info.projector) < 1e-12
        assert abs(np.trace(info.projector).real - info.rank) < 1e-10

    def test_negative_eigenvalue_raises(self):
        with pytest.raises(NegativeEigenvalue):
            support_of(np.diag([1.0, -0.5]).astype(complex))


class TestMatrixPower:
    def test_square_root_on_support(self):
        out = matrix_power_on_support(np.diag([4.0, 0.0]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_pseudo_inverse_convention(self):
        out = matrix_power_on_support(np.diag([4.0, 0.0]).astype(complex), -0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_zeroth_power_is_projector(self):
        out = matrix_power_on_support(np.diag([2.0, 3.0]).astype(complex), 0.0)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [-1.0, 0.5, 2.0])
    def test_power_law_on_support(self, p, q):
        for t in range(6):
            rng = substream(105, t, int(10 * p) + 10, int(10 * q) + 10)
            d = int(rng.integers(2, 7))
            a = random_psd_from(rng, d, rank=int(rng.integers(1, d + 1)))
            lhs = matrix_power_on_support(a, p) @ matrix_power_on_support(a, q)
            rhs = matrix_power_on_support(a, p + q)
            assert max_abs(lhs - rhs) < 1e-9 * max(1.0, max_abs(rhs))

    def test_small_negative_clamped(self):
        a = np.diag([1.0, -1e-14]).astype(complex)
        out = matrix_power_on_support(a, 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        np.testing.assert_allclose(
            tensor(np.eye(2), np.eye(2)), np.eye(4), atol=1e-15
        )

    def test_rank_one_tensor(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-15)

    def test_pauli_block_structure(self):
        d = np.diag([1.0, 2.0])
        out = tensor(PAULI_X, d)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, 2:] = d
        expected[2:, :2] = d
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_partial_trace_recovers_factors(self):
        for t in range(40):
            rng = substream(106, t)
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            rho = random_density(da, da, rng)
            tau = random_density(db, db, rng)
            prod = tensor(rho, tau)
            assert max_abs(partial_trace(prod, da, db, "A") - rho) < 1e-12
            assert max_abs(partial_trace(prod, da, db, "B") - tau) < 1e-12

    def test_bell_state_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(
            partial_trace(rho, 2, 2, "A"), np.eye(2) / 2, atol=1e-14
        )

    def test_basis_state(self):
        ket = np.zeros(4, dtype=complex)
        ket[1] = 1.0  # |0>|1>
        rho = np.outer(ket, ket.conj())
        np.testing.assert_allclose(
            partial_trace(rho, 2, 2, "B"), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_trace_preserved_and_linear(self, rng):
        m = random_hermitian_from(rng, 6)
        out = partial_trace(m, 2, 3, "A")
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5, dtype=complex), 2, 2, "A")


class TestTraceNormAndFidelity:
    def test_indefinite_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -2.0]).astype(complex)) - 3.0) < 1e-14

    def test_density_matrix_is_one(self, rng):
        rho = random_density(4, 4, rng)
        assert abs(trace_norm(rho) - 1.0) < 1e-12

    def test_pauli_x(self):
        assert abs(trace_norm(PAULI_X) - 2.0) < 1e-14

    def test_singular_value_oracle(self):
        # the Hermitian embedding [[0, G], [G^dag, 0]] has eigenvalues +-s_i
        for t in range(40):
            rng = substream(107, t)
            d = int(rng.integers(2, 7))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            zero = np.zeros_like(g)
            embedding = np.block([[zero, g], [g.conj().T, zero]])
            ref = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(embedding))))
            assert abs(trace_norm(g) - ref) < 1e-10 * max(1.0, ref)

    def test_trace_norm_rejects_bad_input(self):
        with pytest.raises(NonFiniteInput):
            trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            trace_norm(np.ones((2, 3)))

    def test_fidelity_self(self, rng):
        rho = random_density(3, 3, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-12

    def test_fidelity_orthogonal(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert fidelity(a, b) < 1e-12

    def test_fidelity_pure_vs_mixed(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        assert abs(fidelity(a, maximally_mixed(2)) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_fidelity_two_routes_and_symmetry(self):
        # sandwich formula tr[(t^1/2 w t^1/2)^1/2] as the second route
        for t in range(30):
            rng = substream(108, t)
            d = int(rng.integers(2, 6))
            w = random_density(d, int(rng.integers(1, d + 1)), rng)
            tau = random_density(d, int(rng.integers(1, d + 1)), rng)
            f = fidelity(w, tau)
            sq = matrix_power_on_support(tau, 0.5)
            sandwich = hermitian_part(sq @ w @ sq)
            f2 = float(np.trace(matrix_power_on_support(sandwich, 0.5)).real)
            assert abs(f - f2) < 1e-10
            assert abs(f - fidelity(tau, w)) < 1e-10

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)


class TestNoSupportKnobs:
    """The support rule has one constant and no per-call override."""

    REMOVED = {"cutoff", "tol", "trace_tol", "norm_tol", "tp_tol", "cross_tol",
               "rotations", "max_iter", "fp_tol", "polish"}

    def test_no_function_takes_a_removed_parameter(self):
        names = ("channels", "cli", "divergences", "dpi", "entanglement", "linalg",
                 "states", "suites")
        mods = [importlib.import_module(f"qrenyi.{n}") for n in names]
        found = []
        for mod in mods:
            for name, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    members = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
                else:
                    members = [(name, obj)]
                for qual, fn in members:
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        bad = self.REMOVED & set(inspect.signature(fn).parameters)
                        found += [f"{mod.__name__}.{qual}({p})" for p in bad]
        assert found == []
