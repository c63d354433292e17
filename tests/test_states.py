import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrenyi.errors import DimensionMismatch
from qrenyi.linalg import (
    check_hermitian,
    hermitian_part,
    max_abs,
    partial_trace,
    support_of,
    tensor,
)
from qrenyi.states import (
    BipartiteState,
    check_density,
    maximally_mixed,
    projector,
    purify,
    random_density,
    random_pure,
    random_unitary,
    rank_profile,
    substream,
)

# the bad and the in-tolerance asymmetric values every entry check is tested on
from test_inputs import BAD, SKEW


class TestPurify:
    def test_pure_state_trivial_ancilla(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        psi, r = purify(rho)
        assert r == 1
        np.testing.assert_allclose(projector(psi), rho, atol=1e-14)

    def test_maximally_mixed_qubit(self):
        psi, r = purify(maximally_mixed(2))
        assert r == 2
        # maximally entangled up to local basis relabeling: uniform marginals
        # and two equal Schmidt coefficients
        for keep in ("A", "B"):
            red = partial_trace(projector(psi), 2, 2, keep)
            np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-12)
        weights = np.sort(np.abs(psi))
        np.testing.assert_allclose(
            weights[2:], [1.0 / np.sqrt(2.0)] * 2, atol=1e-12
        )

    def test_descending_schmidt_order(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        psi, r = purify(rho)
        assert r == 2
        np.testing.assert_allclose(
            np.abs(psi), [np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)], atol=1e-12
        )

    def test_round_trip_battery(self):
        # module invariant: 500 random states, d <= 8
        worst = 0.0
        for t in range(500):
            rng = substream(201, t)
            d = int(rng.integers(2, 9))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            psi, r = purify(rho)
            red = partial_trace(projector(psi), d, r, "A")
            worst = max(worst, max_abs(red - rho))
        assert worst <= 1e-10


class TestRandomStates:
    def test_dimension_one(self):
        np.testing.assert_allclose(random_density(1, 1, 7), [[1.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(random_pure(1, 7)), [1.0], atol=1e-15)

    def test_golden_density_seed_42(self):
        rho = random_density(2, 2, 42)
        expected = np.array(
            [
                [0.16103179088041178 + 0.0j, 0.04319632079068323 - 0.21577469777917313j],
                [0.04319632079068323 + 0.21577469777917313j, 0.8389682091195882 + 0.0j],
            ]
        )
        np.testing.assert_allclose(rho, expected, atol=1e-16)

    def test_golden_pure_seed_42(self):
        psi = random_pure(3, 42)
        expected = np.array(
            [
                0.973769900516621 + 0.0j,
                0.15195822720075475 + 0.16700389414132194j,
                -0.027236747426553947 + 0.006981186511616105j,
            ]
        )
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_phase_convention(self):
        np.testing.assert_allclose(random_pure(1, 7), [1.0], atol=1e-15)
        psi = random_pure(5, 9)
        anchor = psi[np.argmax(np.abs(psi))]
        assert abs(anchor.imag) < 1e-15 and anchor.real > 0

    def test_rank_one_purity(self):
        for seed in range(10):
            rho = random_density(4, 1, seed)
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_requested_rank_and_validity(self, d):
        for rank in range(1, d + 1):
            rho = random_density(d, rank, 300 + rank)
            check_density(rho)
            assert support_of(rho) == rank

    def test_norm_is_one_any_seed(self):
        for seed in range(20):
            assert abs(np.linalg.norm(random_pure(5, seed)) - 1.0) < 1e-12

    def test_substream_independence_of_order(self):
        a1 = random_density(3, 3, substream(55, 4))
        _ = random_density(3, 3, substream(55, 9))
        a2 = random_density(3, 3, substream(55, 4))
        assert max_abs(a1 - a2) == 0.0

    def test_substream_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            substream(-1, 4)

    def test_random_unitary_is_unitary(self):
        for seed in range(5):
            u = random_unitary(4, seed)
            assert max_abs(u.conj().T @ u - np.eye(4)) < 1e-12


class TestBipartite:
    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            BipartiteState(np.eye(4, dtype=complex) / 4, 2, 3)

    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4)])
    def test_rejects_dimensions_below_one(self, dims):
        # (-2, -2) matches the 4 x 4 shape, and numpy's reshape would reject it
        with pytest.raises(ValueError, match="dims must be >= 1"):
            BipartiteState(maximally_mixed(4), *dims)

    def test_rejects_non_integer_dimensions(self):
        # 2.0 * 2 matches the 4 x 4 shape, and numpy's reshape would reject it
        with pytest.raises(TypeError):
            BipartiteState(maximally_mixed(4), 2.0, 2)

    def test_takes_numpy_integer_dimensions(self):
        st = BipartiteState(maximally_mixed(4), np.int64(2), np.int32(2))
        assert (st.dim_a, st.dim_b) == (2, 2)
        assert max_abs(st.marginal_b() - maximally_mixed(2)) < 1e-15

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_matrix_raises_when_made(self, bad):
        value, error = BAD[bad]
        with pytest.raises(error):
            BipartiteState(np.kron(value, maximally_mixed(2)).astype(complex), 2, 2)

    @pytest.mark.parametrize(
        "mat",
        [np.kron(SKEW, maximally_mixed(2)), random_density(4, 3, 5)],
        ids=["in-tolerance-asymmetry", "random"],
    )
    def test_keeps_the_checked_matrix_and_its_spectrum(self, mat):
        st = BipartiteState(mat, 2, 2)
        np.testing.assert_array_equal(st.mat, hermitian_part(mat))
        assert max_abs(st.spectrum.reconstruct() - st.mat) < 1e-14

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_marginals_are_exactly_hermitian(self, dim_a, dim_b, seed):
        # partial traces of the symmetrized matrix: each is its own adjoint,
        # so check_hermitian would return it unchanged, and it is decomposed
        # bare; the input's asymmetry is inside the tolerance
        rng = np.random.default_rng(seed)
        d = dim_a * dim_b
        skew = 1e-13 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng) + skew
        state = BipartiteState(rho, dim_a, dim_b)
        for marginal in (state.marginal_a(), state.marginal_b()):
            assert np.array_equal(marginal, marginal.conj().T)
            assert check_hermitian(marginal).tobytes() == marginal.tobytes()

    def test_marginals_of_product(self):
        rho_a = random_density(2, 2, 1)
        rho_b = random_density(3, 3, 2)
        st = BipartiteState(tensor(rho_a, rho_b), 2, 3)
        assert max_abs(st.marginal_a() - rho_a) < 1e-12
        assert max_abs(st.marginal_b() - rho_b) < 1e-12

    def test_swapped(self):
        rho_a = random_density(2, 2, 3)
        rho_b = random_density(3, 3, 4)
        st = BipartiteState(tensor(rho_a, rho_b), 2, 3)
        sw = st.swapped()
        assert (sw.dim_a, sw.dim_b) == (3, 2)
        assert max_abs(sw.mat - tensor(rho_b, rho_a)) < 1e-12
        assert max_abs(sw.swapped().mat - st.mat) == 0.0

    def test_rank_profile_product(self):
        st = BipartiteState(
            tensor(random_density(2, 2, 5), random_density(2, 2, 6)), 2, 2
        )
        rp = rank_profile(st)
        assert (rp.r_ab, rp.r_a, rp.r_b) == (4, 2, 2)

    def test_rank_profile_maximally_entangled(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        rp = rank_profile(BipartiteState(projector(phi), 2, 2))
        assert (rp.r_ab, rp.r_a, rp.r_b) == (1, 2, 2)

    def test_schmidt_rank_equality_for_pure(self):
        for t in range(30):
            rng = substream(202, t)
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            psi = random_pure(da * db, rng)
            rp = rank_profile(BipartiteState(projector(psi), da, db))
            assert rp.r_a == rp.r_b
