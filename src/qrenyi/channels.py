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

    Complete positivity is structural; trace preservation is checked on
    construction unless ``require_tp=False`` (used for maps that are only
    trace-preserving on a subspace, like recovery maps of rank-deficient
    anchors).
    """

    def __init__(self, kraus_ops, require_tp: bool = True):
        ops = tuple(as_complex_matrix(k) for k in kraus_ops)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        d_out, d_in = ops[0].shape
        for k in ops:
            if k.shape != (d_out, d_in):
                raise DimensionMismatch("Kraus operators have inconsistent shapes")
            if not np.all(np.isfinite(k)):
                raise NonFiniteInput("Kraus operator has a NaN or infinite entry")
        self.kraus = ops
        self.dim_in = d_in
        self.dim_out = d_out
        if require_tp:
            defect = self.completeness_defect()
            if defect > TP_TOL:
                raise ValueError(
                    f"channel is not trace-preserving: defect {defect:.3e}"
                )

    def completeness_defect(self) -> float:
        s = sum(k.conj().T @ k for k in self.kraus)
        return max_abs(s - np.eye(self.dim_in))

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
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=np.complex128)
    for k in channel.kraus:
        out += k @ m @ k.conj().T
    return out


def apply_adjoint(channel: QuantumChannel, y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint ``sum_k K^dag Y K`` (a unital map)."""
    m = as_complex_matrix(y)
    if m.shape != (channel.dim_out, channel.dim_out):
        raise DimensionMismatch(
            f"observable dim {m.shape[0]} does not match channel output "
            f"{channel.dim_out}"
        )
    out = np.zeros((channel.dim_in, channel.dim_in), dtype=np.complex128)
    for k in channel.kraus:
        out += k.conj().T @ m @ k
    return out


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

    The isometry stacks the Kraus operators, ``V psi = sum_k |e_k> (x)
    K_k psi``, with the Kraus index embedded into H (x) H'; the unitary
    extends V from the ancilla slice by an orthonormal basis of the
    complement of its range, taken from one complete QR factorization of V.
    """
    d_h, d_k = channel.dim_in, channel.dim_out
    m = len(channel.kraus)
    d_hp = max(1, -(-m // d_h))  # ceil(m / d_h)
    d_env = d_h * d_hp
    n = d_env * d_k

    v = np.zeros((n, d_h), dtype=np.complex128)
    for idx, k in enumerate(channel.kraus):
        # slot |e_idx>_{H x H'} (x) K_k: rows idx * d_k .. idx * d_k + d_k
        v[idx * d_k : (idx + 1) * d_k, :] += k

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
    """The partial trace as a channel (Kraus operators ``1 (x) <b|``)."""
    kraus = []
    if keep == "A":
        eye = np.eye(dim_a, dtype=np.complex128)
        for b in range(dim_b):
            bra = np.zeros((1, dim_b), dtype=np.complex128)
            bra[0, b] = 1.0
            kraus.append(np.kron(eye, bra))
    elif keep == "B":
        eye = np.eye(dim_b, dtype=np.complex128)
        for a in range(dim_a):
            bra = np.zeros((1, dim_a), dtype=np.complex128)
            bra[0, a] = 1.0
            kraus.append(np.kron(bra, eye))
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return QuantumChannel(kraus)


def pinching_channel(projectors) -> QuantumChannel:
    """Block-diagonalizing channel ``rho -> sum_i P_i rho P_i``."""
    ops = [as_complex_matrix(p) for p in projectors]
    d = ops[0].shape[0]
    total = sum(ops)
    if max_abs(total - np.eye(d)) > TP_TOL:
        raise IncompleteResolution("projectors do not resolve the identity")
    for p in ops:
        if max_abs(p @ p - p) > 1e-8 or max_abs(p - p.conj().T) > 1e-8:
            raise IncompleteResolution("input is not an orthogonal projector")
    return QuantumChannel(ops)


def completely_dephasing(d: int) -> QuantumChannel:
    projs = []
    for i in range(d):
        p = np.zeros((d, d), dtype=np.complex128)
        p[i, i] = 1.0
        projs.append(p)
    return pinching_channel(projs)


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
    kraus = [stack[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_count)]
    return QuantumChannel(kraus)
