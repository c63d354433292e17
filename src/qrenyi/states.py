"""States, positive operators, purifications, and seeded random generation."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    Spectrum,
    _bare_eig,
    _checked_positive,
    as_complex_matrix,
    hermitian_part,
    partial_trace,
    positive_spectrum,
)

#: Allowed deviation of a density matrix trace from 1.
TRACE_TOL = 1e-10


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent counter-based random stream for (seed, trial indices).

    Built on Philox keyed through a spawned SeedSequence, so any tuple of
    indices yields a reproducible stream independent of evaluation order.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def check_positive(a: np.ndarray) -> np.ndarray:
    """Validate positive semidefiniteness (up to roundoff) and symmetrize."""
    return _checked_positive(a)[0]


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    return _require_unit_trace(check_positive(rho))


def _require_unit_trace(m: np.ndarray) -> np.ndarray:
    """``m``; ValueError where its trace deviates from 1 by more than
    ``TRACE_TOL``."""
    if abs((tr := float(np.trace(m).real)) - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} deviates from 1 by more than {TRACE_TOL}")
    return m


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on A (x) B with the factorization attached, checked
    once, when made: ``mat`` is the symmetrized matrix that passed and
    ``spectrum`` its decomposition, which functions taking a state read."""

    mat: np.ndarray
    dim_a: int
    dim_b: int
    spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim_a, dim_b = operator.index(self.dim_a), operator.index(self.dim_b)
        if min(dim_a, dim_b) < 1:
            raise ValueError(f"dims must be >= 1, got ({dim_a}, {dim_b})")
        m = as_complex_matrix(self.mat)
        d = dim_a * dim_b
        if m.shape != (d, d):
            raise DimensionMismatch(
                f"state is {m.shape}, expected ({d}, {d}) for dims ({dim_a}, {dim_b})"
            )
        m, spec = _checked_positive(m)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "spectrum", spec)

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
    marginals = (_bare_eig(state.marginal_a()), _bare_eig(state.marginal_b()))
    specs = (state.spectrum,) + marginals
    return RankProfile(*(int(np.sum(spec.support_mask())) for spec in specs))


def maximally_mixed(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d, dtype=np.complex128) / d


def purify(rho: np.ndarray):
    """Canonical purification of a state.

    Returns ``(psi, r)`` where ``psi`` is a unit vector on H (x) H' with
    ``r = dim(H') = rank(rho)``, built as ``sum_i sqrt(l_i) |v_i> (x) |i>``
    over the supported eigenpairs in descending eigenvalue order.  Tracing
    out H' recovers ``rho``; the phased eigenvectors make psi deterministic.
    Raises NegativeEigenvalue when rho is not positive semidefinite.
    """
    return _purification(positive_spectrum(rho))


def _purification(spec):
    """:func:`purify` from the checked spectrum of rho."""
    lam, vecs = spec.phased().supported()
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
