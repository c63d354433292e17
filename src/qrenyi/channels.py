"""Quantum operations in Kraus form, their adjoints and dilations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompletePOVM,
    IncompleteResolution,
    NonFiniteInput,
)
from .linalg import (
    _bare_eig,
    as_complex_matrix,
    max_abs,
    partial_trace,
    positive_spectrum,
    tensor,
)
from .states import _as_rng, _complex_gaussian

#: Allowed deviation of sum_k K_k^dag K_k from the identity.
TP_TOL = 1e-9


def _stacked(ops, what: str, square: bool = False) -> np.ndarray:
    """Matrices of one shape as one complex ``(count, rows, cols)`` array;
    ValueError for none, DimensionMismatch for mixed or (with ``square``)
    non-square shapes, NonFiniteInput for a NaN or infinite entry."""
    mats = [as_complex_matrix(m) for m in ops]
    if not mats:
        raise ValueError(f"need at least one {what}")
    if len({m.shape for m in mats}) > 1:
        raise DimensionMismatch(f"{what}s have inconsistent shapes")
    if square and mats[0].shape[0] != mats[0].shape[1]:
        raise DimensionMismatch(f"{what} of shape {mats[0].shape} is not square")
    stack = np.stack(mats)
    if not np.isfinite(stack).all():
        raise NonFiniteInput(f"{what} has a NaN or infinite entry")
    return stack


class QuantumChannel:
    """Completely positive map given by Kraus operators.

    ``kraus`` holds them as one read-only complex array of shape
    ``(count, dim_out, dim_in)``; reshaped to ``(count * dim_out, dim_in)``
    it is the Stinespring isometry ``V = sum_k |k> (x) K_k``.  Complete
    positivity is structural; trace preservation (``V^dag V = 1``) is
    checked on construction unless ``require_tp=False`` (used for maps that
    are only trace-preserving on a subspace, like recovery maps of
    rank-deficient anchors).
    """

    def __init__(self, kraus_ops, require_tp: bool = True):
        kraus = _stacked(kraus_ops, "Kraus operator")
        kraus.flags.writeable = False
        self.kraus = kraus
        _, self.dim_out, self.dim_in = kraus.shape
        if require_tp:
            defect = self.completeness_defect()
            if defect > TP_TOL:
                raise ValueError(
                    f"channel is not trace-preserving: defect {defect:.3e}"
                )

    def completeness_defect(self) -> float:
        """``max|V^dag V - 1|`` for the isometry V, the stacked operators."""
        v = self.kraus.reshape(-1, self.dim_in)
        return max_abs(v.conj().T @ v - np.eye(self.dim_in))

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply(self, rho)

    def __repr__(self):
        return (
            f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
            f"kraus_count={len(self.kraus)})"
        )


def _operand(a, d: int, what: str, side: str) -> np.ndarray:
    """``a`` as a complex matrix; DimensionMismatch unless it is d x d."""
    m = as_complex_matrix(a)
    if m.shape != (d, d):
        raise DimensionMismatch(
            f"{what} of shape {m.shape} does not match channel {side} {d}"
        )
    return m


def apply(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Forward action ``sum_k K rho K^dag``."""
    m = _operand(rho, channel.dim_in, "state", "input")
    k = channel.kraus
    return (k @ m @ k.conj().mT).sum(axis=0)


def apply_adjoint(channel: QuantumChannel, y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint ``sum_k K^dag Y K`` (a unital map)."""
    m = _operand(y, channel.dim_out, "observable", "output")
    k = channel.kraus
    return (k.conj().mT @ m @ k).sum(axis=0)


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StinespringDilation:
    """Stinespring isometry of a channel, ``rho -> tr_E(V rho V^dag)``.

    ``isometry`` is ``V = sum_k |k>_E (x) K_k``: the Kraus stack reshaped to
    ``(dim_env * dim_out, dim_in)``, environment index first, with
    ``dim_env`` the Kraus count.
    """

    isometry: np.ndarray
    dim_env: int
    dim_out: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action ``tr_E(V rho V^dag)``."""
        v = self.isometry
        m = _operand(rho, v.shape[1], "state", "input")
        return partial_trace(v @ m @ v.conj().T, self.dim_env, self.dim_out, keep="B")

    def apply_adjoint(self, omega: np.ndarray) -> np.ndarray:
        """Adjoint action ``V^dag (1_E (x) omega) V``."""
        m = _operand(omega, self.dim_out, "observable", "output")
        lifted = tensor(np.eye(self.dim_env), m)
        return self.isometry.conj().T @ lifted @ self.isometry


def stinespring(channel: QuantumChannel) -> StinespringDilation:
    """The channel's Stinespring isometry, its Kraus stack reshaped."""
    count, d_out, d_in = channel.kraus.shape
    v = channel.kraus.reshape(count * d_out, d_in)
    return StinespringDilation(v, count, d_out)


# ---------------------------------------------------------------------------
# Structured channels
# ---------------------------------------------------------------------------


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(d, dtype=np.complex128)])


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    return QuantumChannel([as_complex_matrix(u)])


def partial_trace_channel(dim_a: int, dim_b: int, keep: str = "A") -> QuantumChannel:
    """The partial trace as a channel: Kraus operators ``1 (x) <b|`` (or
    ``<a| (x) 1``), the identity's rows ``<a| (x) <b|`` grouped by b (or a)."""
    rows = np.eye(dim_a * dim_b, dtype=np.complex128).reshape(dim_a, dim_b, -1)
    if keep == "A":
        return QuantumChannel(rows.transpose(1, 0, 2))
    if keep == "B":
        return QuantumChannel(rows)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def pinching_channel(projectors) -> QuantumChannel:
    """Block-diagonalizing channel ``rho -> sum_i P_i rho P_i``."""
    p = _stacked(projectors, "projector", square=True)
    if max_abs(p.sum(axis=0) - np.eye(p.shape[-1])) > TP_TOL:
        raise IncompleteResolution("projectors do not resolve the identity")
    if max_abs(p @ p - p) > 1e-8 or max_abs(p - p.conj().mT) > 1e-8:
        raise IncompleteResolution("input is not an orthogonal projector")
    return QuantumChannel(p)


def completely_dephasing(d: int) -> QuantumChannel:
    """Pinching by the rank-1 projectors ``|i><i|`` onto the identity's rows."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    eye = np.eye(d, dtype=np.complex128)
    return pinching_channel(eye[:, :, None] * eye[:, None, :])


def amplitude_damping(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"need 0 <= gamma <= 1, got gamma={gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return QuantumChannel([k0, k1])


def depolarizing(d: int, p: float = 1.0) -> QuantumChannel:
    """``rho -> (1-p) rho + p tr(rho) pi_d``.

    Kraus operators are ``sqrt(1-p) 1`` and the d^2 matrix units
    ``sqrt(p/d) |i><j|``, which send rho to ``p tr(rho) 1/d``.
    """
    if d < 1 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need d >= 1 and 0 <= p <= 1, got d={d}, p={p}")
    kraus = [np.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)]
    kraus += list(np.sqrt(p / d) * np.eye(d * d).reshape(d * d, d, d))
    return QuantumChannel(kraus)


def measurement_channel(povm) -> QuantumChannel:
    """Measure-and-record channel ``omega -> sum_x tr(omega M_x) |x><x|``.

    Raises NegativeEigenvalue when an element is not positive semidefinite.
    """
    elements = _stacked(povm, "POVM element", square=True)
    n_out, d, _ = elements.shape
    if max_abs(elements.sum(axis=0) - np.eye(d)) > TP_TOL:
        raise IncompletePOVM("POVM elements do not sum to the identity")
    kraus = []
    for x, m in enumerate(elements):
        lams, vecs = positive_spectrum(m).phased().supported()
        for lam, vec in zip(lams, vecs.T):
            k = np.zeros((n_out, d), dtype=np.complex128)
            k[x, :] = np.sqrt(lam) * vec.conj()
            kraus.append(k)
    return QuantumChannel(kraus)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed) -> QuantumChannel:
    """Random channel from an orthonormalized Gaussian Kraus stack."""
    if kraus_count < 1:
        raise ValueError("kraus_count must be >= 1")
    if kraus_count * dim_out < dim_in:
        raise ValueError(
            "no trace-preserving channel with "
            f"kraus_count*dim_out = {kraus_count * dim_out} < dim_in = {dim_in}"
        )
    rng = _as_rng(seed)
    stack = _complex_gaussian(rng, (kraus_count * dim_out, dim_in))
    gram = _bare_eig(stack.conj().T @ stack)
    stack = stack @ gram.on_support(lambda lam: lam**-0.5)
    return QuantumChannel(stack.reshape(kraus_count, dim_out, dim_in))
