"""States, positive operators, purifications, and seeded random generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    as_complex_matrix,
    check_hermitian,
    hermitian_eig,
    hermitian_part,
    partial_trace,
    positive_spectrum,
    support_of,
)

#: Allowed deviation of a density matrix trace from 1.
TRACE_TOL = 1e-10


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent counter-based random stream for (seed, trial indices).

    Built on Philox keyed through a spawned SeedSequence, so any tuple of
    indices yields a reproducible stream independent of evaluation order.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def check_positive(a: np.ndarray) -> np.ndarray:
    """Validate positive semidefiniteness (up to roundoff) and symmetrize."""
    m = check_hermitian(a)
    positive_spectrum(m)
    return m


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    m = check_positive(rho)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} deviates from 1 by more than {TRACE_TOL}")
    return m


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on A (x) B with the factorization attached."""

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        d = self.dim_a * self.dim_b
        if m.shape != (d, d):
            raise DimensionMismatch(
                f"state is {m.shape}, expected ({d}, {d}) for dims "
                f"({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "mat", m)

    def marginal_a(self) -> np.ndarray:
        return partial_trace(self.mat, self.dim_a, self.dim_b, keep="A")

    def marginal_b(self) -> np.ndarray:
        return partial_trace(self.mat, self.dim_a, self.dim_b, keep="B")

    def swapped(self) -> "BipartiteState":
        """The same state with the two factors exchanged (B first)."""
        perm = _swap_permutation(self.dim_a, self.dim_b)
        return BipartiteState(self.mat[np.ix_(perm, perm)], self.dim_b, self.dim_a)


def _swap_permutation(dim_a: int, dim_b: int) -> np.ndarray:
    # index (a, b) -> position b * dim_a + a in the swapped layout
    idx = np.arange(dim_a * dim_b).reshape(dim_a, dim_b)
    return idx.T.reshape(-1)


@dataclass(frozen=True)
class RankProfile:
    """Numerical ranks of a bipartite state and its marginals."""

    r_ab: int
    r_a: int
    r_b: int


def rank_profile(state: BipartiteState) -> RankProfile:
    r_ab = support_of(state.mat).rank
    r_a = support_of(state.marginal_a()).rank
    r_b = support_of(state.marginal_b()).rank
    return RankProfile(r_ab, r_a, r_b)


def maximally_mixed(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d, dtype=np.complex128) / d


def purify(rho: np.ndarray):
    """Canonical purification of a state.

    Returns ``(psi, r)`` where ``psi`` is a unit vector on H (x) H' with
    ``r = dim(H') = rank(rho)``, built as ``sum_i sqrt(l_i) |v_i> (x) |i>``
    over the supported eigenpairs in descending eigenvalue order.  Tracing
    out H' recovers ``rho``.
    """
    lam, vecs = hermitian_eig(rho).supported()
    psi = (vecs[:, ::-1] * np.sqrt(lam[::-1])).reshape(-1)
    return psi, lam.size


def random_density(d: int, rank: int, seed) -> np.ndarray:
    """Random density matrix ``G G^dag / tr`` with a d x rank Gaussian G."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = _as_rng(seed)
    g = _complex_gaussian(rng, (d, rank))
    m = g @ g.conj().T
    return hermitian_part(m / np.trace(m).real)


def random_pure(d: int, seed) -> np.ndarray:
    """Random unit vector with Gaussian amplitudes.

    The global phase is fixed by making the largest-magnitude amplitude
    real positive, matching the package-wide eigenvector convention.
    """
    rng = _as_rng(seed)
    v = _complex_gaussian(rng, (d,))
    v /= np.linalg.norm(v)
    anchor = v[np.argmax(np.abs(v))]
    return v * (anchor.conjugate() / abs(anchor))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    rng = _as_rng(seed)
    g = _complex_gaussian(rng, (d, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)
