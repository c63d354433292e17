"""Dense complex Hermitian linear algebra on small matrices.

Everything here operates on plain ``numpy.ndarray`` values of dtype
``complex128``.  Matrix functions (powers, square roots, logarithms) are
evaluated spectrally and restricted to the support of the operator, with a
relative eigenvalue cutoff separating "zero" from "nonzero" modes.

Index convention: tensor products are A-major (``kron(A, B)`` row-major),
and all partial traces assume that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
)

#: Relative hermiticity tolerance (against the max-entry magnitude).
HERMITICITY_TOL = 1e-9

#: Relative eigenvalue cutoff of the support rule and the negative floor.
SUPPORT_CUTOFF = 1e-10


def support_threshold(values: np.ndarray):
    """The support rule: values at or below ``SUPPORT_CUTOFF * max(1, v_max)``
    count as 0, with ``v_max`` the largest value along the last axis, so a
    stack of spectra gets one threshold per row."""
    return SUPPORT_CUTOFF * values.max(axis=-1, initial=1.0)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  Supports, and functions
    of the operator on its support, are all read from here.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self, values: np.ndarray | None = None) -> np.ndarray:
        """``V diag(values) V^dag``; ``values`` defaults to the eigenvalues."""
        v = self.eigenvectors
        vals = self.eigenvalues if values is None else values
        return (v * vals) @ v.conj().T

    def support_threshold(self) -> float:
        """:func:`support_threshold` of the eigenvalues."""
        return float(support_threshold(self.eigenvalues))

    def support_mask(self) -> np.ndarray:
        """Keep mask of the eigenpairs spanning the numerical support."""
        return self.eigenvalues > self.support_threshold()

    def supported(self):
        """``(eigenvalues, eigenvectors)`` on the numerical support, ascending."""
        keep = self.support_mask()
        return self.eigenvalues[keep], self.eigenvectors[:, keep]

    def on_support(self, fn) -> np.ndarray:
        """Hermitian matrix with ``fn`` of the supported eigenvalues, 0 elsewhere."""
        keep = self.support_mask()
        vals = np.zeros_like(self.eigenvalues)
        vals[keep] = fn(self.eigenvalues[keep])
        return hermitian_part(self.reconstruct(vals))


@dataclass(frozen=True)
class SupportInfo:
    """Numerical support of a positive semidefinite operator."""

    rank: int
    projector: np.ndarray
    cutoff_used: float


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm ``max_ij |a_ij|``."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    Raises NonFiniteInput when an entry is NaN or infinite, and
    NonHermitianInput when ``max|A - A^dag|`` exceeds ``HERMITICITY_TOL``
    times the max-entry magnitude of A.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix is not square: shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    scale = max_abs(m)
    defect = max_abs(m - m.conj().T)
    if defect > HERMITICITY_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e} x {scale:.3e}"
        )
    return hermitian_part(m)


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK ``eigh``.

    The input is checked (finite, Hermitian) and symmetrized first.
    Eigenvalues are returned ascending; each eigenvector is phased so its
    largest-magnitude entry is real positive, which makes the decomposition
    deterministic.
    """
    evals, v = np.linalg.eigh(check_hermitian(h))
    # Deterministic phases: largest-magnitude entry of each column real > 0.
    if v.size:
        anchors = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v = v * (anchors.conjugate() / np.abs(anchors))
    return Spectrum(evals, v)


def positive_spectrum(a: np.ndarray) -> Spectrum:
    """:func:`hermitian_eig` of a positive semidefinite operator.

    Eigenvalues down to ``-SUPPORT_CUTOFF * max(1, |lambda|_max)`` count as
    roundoff of 0; anything below that floor raises NegativeEigenvalue.
    """
    spec = hermitian_eig(a)
    if spec.eigenvalues.size:
        low, high = spec.eigenvalues[0], spec.eigenvalues[-1]  # ascending
        floor = -SUPPORT_CUTOFF * max(1.0, -low, high)
        if low < floor:
            raise NegativeEigenvalue(
                f"eigenvalue {low:.3e} below allowed floor {floor:.3e}"
            )
    return spec


def support_of(a: np.ndarray) -> SupportInfo:
    """Support projector of a positive semidefinite operator.

    Eigenvalues above :meth:`Spectrum.support_threshold` count towards the
    rank; anything between the :func:`positive_spectrum` floor and the
    threshold is treated as zero, and eigenvalues below that floor raise
    NegativeEigenvalue.
    """
    spec = positive_spectrum(a)
    projector = spec.on_support(np.ones_like)
    rank = int(np.sum(spec.support_mask()))
    return SupportInfo(rank, projector, spec.support_threshold())


def matrix_power_on_support(a: np.ndarray, p: float) -> np.ndarray:
    """``A^p`` evaluated on the support of A (pseudo-inverse convention).

    Eigenvalues above the support threshold map to ``lambda^p``; the rest
    map to 0 (this clamps small negative roundoff).  ``p == 0`` returns the
    support projector.
    """
    return positive_spectrum(a).on_support(lambda lam: lam**p)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A-major index convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(
    m: np.ndarray, dim_a: int, dim_b: int, keep: str = "A"
) -> np.ndarray:
    """Partial trace of an operator on A (x) B.

    ``keep`` selects which factor survives ("A" traces out B and vice
    versa).  The input must be square of dimension ``dim_a * dim_b``.
    """
    mat = as_complex_matrix(m)
    d = dim_a * dim_b
    if mat.shape != (d, d):
        raise DimensionMismatch(
            f"operator is {mat.shape}, expected ({d}, {d}) = ({dim_a}x{dim_b})^2"
        )
    t = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abac->bc", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def trace_norm(a: np.ndarray) -> float:
    """Trace norm (sum of singular values) of a square matrix, by LAPACK SVD."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("trace norm defined here for square input")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def fidelity(omega: np.ndarray, tau: np.ndarray) -> float:
    """Uhlmann fidelity ``|| sqrt(omega) sqrt(tau) ||_1`` of two states."""
    w = as_complex_matrix(omega)
    t = as_complex_matrix(tau)
    if w.shape != t.shape:
        raise DimensionMismatch(f"shape mismatch {w.shape} vs {t.shape}")
    sw = matrix_power_on_support(w, 0.5)
    st = matrix_power_on_support(t, 0.5)
    val = trace_norm(sw @ st)
    return float(min(max(val, 0.0), 1.0))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call to keep ``import
    qrenyi`` fast.  ``entanglement.reof_minimize`` is its one caller, through
    the module's own binding of this name; ``bench/tracer.py`` wraps that
    binding, and the unused one in ``divergences``, to count nfev."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)
