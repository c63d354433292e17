"""Dense complex Hermitian linear algebra on small matrices.

Everything here operates on plain ``numpy.ndarray`` values of dtype
``complex128``.  Matrix functions (powers, square roots, logarithms) are
evaluated spectrally and restricted to the support of the operator, with a
relative eigenvalue cutoff separating "zero" from "nonzero" modes.

One rule for every decomposition: what is checked is what a caller
passes.  A caller's argument is one matrix, and :func:`check_hermitian`,
the one place that decides it, rejects anything else with
DimensionMismatch.  Each caller's matrix argument, and a
``BipartiteState``'s matrix when the state is made, is checked once: by
:func:`_checked_positive` (finite, Hermitian, the negative floor), or by
:func:`check_hermitian` alone where no spectrum is needed; both return the
symmetrized matrix, never the raw one (LAPACK reads only its lower
triangle).  What the library forms from checked matrices only to take a
function of it (a state's marginals, channel images, sandwiches) goes
through :func:`_bare_eig`, with no check; a pair of either kind is
classified by ``divergences._classified``.  Stacks ``(..., d, d)`` are the
library's own (the violation search's Gram stacks) and are decomposed
bare.  Eigenvectors are phased (:meth:`Spectrum.phased`) only where they
leave the library: :func:`hermitian_eig`, ``states.purify``,
``channels.measurement_channel`` and ``entanglement.reof_minimize``'s
ensemble.

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
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    ``eigenvalues`` are real and ascending along the last axis;
    ``eigenvectors`` holds the matching orthonormal eigenvectors as columns.
    Supports, and functions of the operator on its support, are all read
    from here; ``reconstruct``, ``support_mask`` and ``on_support`` act per
    matrix on stacks, ``supported`` and ``phased`` need one matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self, values: np.ndarray | None = None) -> np.ndarray:
        """``V diag(values) V^dag``; ``values`` defaults to the eigenvalues."""
        v = self.eigenvectors
        vals = self.eigenvalues if values is None else values
        return (v * vals[..., None, :]) @ v.conj().mT

    def support_mask(self) -> np.ndarray:
        """Keep mask of the eigenpairs spanning the numerical support."""
        return self.eigenvalues > support_threshold(self.eigenvalues)[..., None]

    def supported(self):
        """``(eigenvalues, eigenvectors)`` on the numerical support, ascending."""
        keep = self.support_mask()
        return self.eigenvalues[keep], self.eigenvectors[:, keep]

    def on_support(self, fn) -> np.ndarray:
        """Hermitian matrix with ``fn`` of the supported eigenvalues, 0
        elsewhere; ``fn`` acts elementwise."""
        keep = self.support_mask()
        vals = np.zeros_like(self.eigenvalues)
        vals[keep] = fn(self.eigenvalues[keep])
        return hermitian_part(self.reconstruct(vals))

    def phased(self) -> "Spectrum":
        """This decomposition with each eigenvector's largest-magnitude
        entry made real positive: deterministic eigenvectors to hand out."""
        v = self.eigenvectors
        if v.size:
            anchors = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
            v = v * (anchors.conjugate() / np.abs(anchors))
        return Spectrum(self.eigenvalues, v)


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm ``max_ij |a_ij|``."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().mT)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    Raises DimensionMismatch for anything but one matrix, NonFiniteInput
    when an entry is NaN or infinite, and NonHermitianInput when
    ``max|A - A^dag|`` exceeds ``HERMITICITY_TOL`` times the max-entry
    magnitude of A.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix is not square: shape {m.shape}")
    # NaN and inf propagate to the max, and are caught before A - A^dag warns
    if not np.isfinite(scale := max_abs(m)):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    adj = m.conj().T
    if (defect := max_abs(m - adj)) > HERMITICITY_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"hermiticity defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} x {scale:.3e}"
        )
    return 0.5 * (m + adj)


def _bare_eig(h: np.ndarray) -> Spectrum:
    """LAPACK ``eigh`` of a Hermitian matrix, or of each of a stack, and
    nothing else: the package's one eigensolver call, bare for operators
    formed from checked input.  LAPACK reads the lower triangle, and the
    eigenvectors carry its phases, so use the result only in
    phase-invariant ways (eigenvalues, ``support_mask``, ``reconstruct``).
    """
    return Spectrum(*np.linalg.eigh(h))


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Checked (finite, Hermitian, then symmetrized) eigendecomposition of
    a matrix, with ascending eigenvalues and :meth:`Spectrum.phased`
    eigenvectors."""
    return _bare_eig(check_hermitian(h)).phased()


def _psd_floor(spec: Spectrum) -> Spectrum:
    """``spec``; NegativeEigenvalue for an eigenvalue below the floor
    ``-SUPPORT_CUTOFF * max(1, |lambda|_max)`` (roundoff of 0 above it)."""
    ev = spec.eigenvalues
    # the floor lies at or below -SUPPORT_CUTOFF
    if (low := ev.min(initial=0.0)) < -SUPPORT_CUTOFF:
        floor = -SUPPORT_CUTOFF * np.abs(ev).max(initial=1.0)
        if low < floor:
            raise NegativeEigenvalue(
                f"eigenvalue {low:.3e} below allowed floor {floor:.3e}"
            )
    return spec


def _checked_positive(a: np.ndarray):
    """``(m, spectrum of m)``: ``a`` checked finite, Hermitian and above the
    :func:`_psd_floor`, and ``m`` its symmetrized copy, to work on after."""
    m = check_hermitian(a)
    return m, _psd_floor(_bare_eig(m))


def positive_spectrum(a: np.ndarray) -> Spectrum:
    """The checked spectrum of :func:`_checked_positive`."""
    return _checked_positive(a)[1]


def support_of(a: np.ndarray) -> int:
    """Rank of a positive semidefinite operator: its eigenvalues above
    :func:`support_threshold`, from :func:`positive_spectrum`."""
    return int(np.sum(positive_spectrum(a).support_mask()))


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
    """Partial trace of an operator on A (x) B, or of each operator of a
    stack ``(..., d, d)``.

    ``keep`` selects which factor survives ("A" traces out B and vice
    versa).  The input must be square of dimension ``dim_a * dim_b``.
    """
    mat = np.asarray(m, dtype=np.complex128)
    d = dim_a * dim_b
    if mat.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"operator is {mat.shape}, expected ({d}, {d}) = ({dim_a}x{dim_b})^2"
        )
    t = mat.reshape(mat.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...abcb->...ac", t)
    if keep == "B":
        return np.einsum("...abac->...bc", t)
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
    sw, st = (matrix_power_on_support(m, 0.5) for m in (omega, tau))
    if sw.shape != st.shape:
        raise DimensionMismatch(f"shape mismatch {sw.shape} vs {st.shape}")
    return _root_fidelity(sw, st)


def _root_fidelity(sqrt_omega: np.ndarray, sqrt_tau: np.ndarray) -> float:
    """:func:`fidelity` from the two square roots, clamped to [0, 1]."""
    val = trace_norm(sqrt_omega @ sqrt_tau)
    return float(min(max(val, 0.0), 1.0))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call to keep ``import
    qrenyi`` fast.  ``entanglement.reof_minimize`` is its one caller, through
    the module's own binding of this name; ``bench/tracer.py`` wraps that
    binding, and the unused one in ``divergences``, to count nfev."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)
