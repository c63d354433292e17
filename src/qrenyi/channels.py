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
    as_complex_matrix,
    hermitian_part,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    positive_spectrum,
    tensor,
)
from .states import _as_rng, _complex_gaussian, projector

#: Allowed deviation of sum_k K_k^dag K_k from the identity.
TP_TOL = 1e-9


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
        ops = [as_complex_matrix(k) for k in kraus_ops]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        if len({k.shape for k in ops}) > 1:
            raise DimensionMismatch("Kraus operators have inconsistent shapes")
        kraus = np.stack(ops)
        if not np.isfinite(kraus).all():
            raise NonFiniteInput("Kraus operator has a NaN or infinite entry")
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


def apply(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Forward action ``sum_k K rho K^dag``."""
    m = as_complex_matrix(rho)
    if m.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch(
            f"state dim {m.shape[0]} does not match channel input {channel.dim_in}"
        )
    k = channel.kraus
    return (k @ m @ k.conj().mT).sum(axis=0)


def apply_adjoint(channel: QuantumChannel, y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint ``sum_k K^dag Y K`` (a unital map)."""
    m = as_complex_matrix(y)
    if m.shape != (channel.dim_out, channel.dim_out):
        raise DimensionMismatch(
            f"observable dim {m.shape[0]} does not match channel output "
            f"{channel.dim_out}"
        )
    k = channel.kraus
    return (k.conj().mT @ m @ k).sum(axis=0)


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StinespringDilation:
    """Unitary dilation of a channel.

    The channel acts as ``rho -> tr_12(U (rho (x) tau) U^dag)`` on the
    space H (x) H' (x) K, where ``tau = |ancilla><ancilla|`` lives on
    H' (x) K and the output K survives the partial trace over the first
    two factors.  ``isometry`` is ``U (1_H (x) |ancilla>)``.
    """

    ancilla_state: np.ndarray
    unitary: np.ndarray
    isometry: np.ndarray
    dim_h: int
    dim_hp: int
    dim_k: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action through the explicit dilation."""
        tau = projector(self.ancilla_state)
        big = tensor(as_complex_matrix(rho), tau)
        evolved = self.unitary @ big @ self.unitary.conj().T
        return partial_trace(evolved, self.dim_h * self.dim_hp, self.dim_k, keep="B")

    def apply_adjoint(self, omega: np.ndarray) -> np.ndarray:
        """Adjoint action ``V^dag (1 (x) omega) V`` through the isometry."""
        lifted = tensor(np.eye(self.dim_h * self.dim_hp), as_complex_matrix(omega))
        return self.isometry.conj().T @ lifted @ self.isometry


def stinespring(channel: QuantumChannel) -> StinespringDilation:
    """Dilate a channel to a unitary with a pure ancilla.

    The isometry is the channel's Kraus stack reshaped, ``V psi = sum_k
    |e_k> (x) K_k psi``, with the Kraus index embedded into H (x) H'; the unitary
    extends V from the ancilla slice by an orthonormal basis of the
    complement of its range, taken from one complete QR factorization of V.
    """
    d_h, d_k = channel.dim_in, channel.dim_out
    m = len(channel.kraus)
    d_hp = max(1, -(-m // d_h))  # ceil(m / d_h)
    d_env = d_h * d_hp
    n = d_env * d_k

    v = np.zeros((n, d_h), dtype=np.complex128)
    # slot |e_k>_{H x H'} (x) K_k: rows k * d_k .. k * d_k + d_k
    v[: m * d_k] = channel.kraus.reshape(-1, d_h)

    ancilla = np.zeros(d_hp * d_k, dtype=np.complex128)
    ancilla[0] = 1.0

    u = np.zeros((n, n), dtype=np.complex128)
    # columns carrying |i>_H (x) |ancilla> map to V|i>
    special = [i * (d_hp * d_k) for i in range(d_h)]
    u[:, special] = v
    rest = [j for j in range(n) if j not in special]
    # the last n - d_h columns of Q span the orthogonal complement of range(V)
    u[:, rest] = np.linalg.qr(v, mode="complete")[0][:, d_h:]
    return StinespringDilation(ancilla, u, v, d_h, d_hp, d_k)


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
    p = QuantumChannel(projectors, require_tp=False).kraus
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
    elements = [as_complex_matrix(m) for m in povm]
    if not elements:
        raise ValueError("need at least one POVM element")
    d = elements[0].shape[0]
    total = sum(elements)
    if max_abs(total - np.eye(d)) > TP_TOL:
        raise IncompletePOVM("POVM elements do not sum to the identity")
    n_out = len(elements)
    kraus = []
    for x, m in enumerate(elements):
        lams, vecs = positive_spectrum(m).supported()
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
    gram = hermitian_part(stack.conj().T @ stack)
    stack = stack @ matrix_power_on_support(gram, -0.5)
    return QuantumChannel(stack.reshape(kraus_count, dim_out, dim_in))
