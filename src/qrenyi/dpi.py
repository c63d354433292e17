"""Data processing inequality: gap reports, the algebraic equality
certificate, recovery maps, sufficiency, and the below-1/2 violation search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, apply_adjoint, stinespring
from .divergences import (
    CONTAINED,
    DISJOINT,
    DivergenceValue,
    _classified_spectra,
    _critical_observable,
    h_hat,
    srd,
)
from .errors import DimensionMismatch, DisjointSupports, SupportViolation
from .linalg import (
    as_complex_matrix,
    hermitian_eig,
    hermitian_part,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    positive_spectrum,
    tensor,
)
from .states import _complex_gaussian, projector, substream

#: Relative threshold on the operator residual of the equality certificate.
EQ_TOL = 1e-7

#: Threshold on |divergence gap| used when cross-checking certificates.
CROSS_TOL = 1e-6

VERDICT_EQUAL = "equal"
VERDICT_NOT_EQUAL = "not-equal"


@dataclass(frozen=True)
class DpiReport:
    """Divergences before and after a channel, and their difference.

    ``gap`` is ``lhs - rhs`` when both are finite, ``inf`` when only the
    input-side divergence diverges, and ``nan`` when both do.
    """

    lhs: DivergenceValue
    rhs: DivergenceValue
    gap: float
    alpha: float


@dataclass(frozen=True)
class EqualityCertificate:
    """Operator form of the equality condition for the processing inequality.

    ``residual`` is the max-entry norm of ``lhs_operator - rhs_operator``;
    the verdict is "equal" when it does not exceed ``eq_tol`` relative to
    ``max(1, |lhs|)``.
    """

    residual: float
    lhs_operator: np.ndarray
    rhs_operator: np.ndarray
    verdict: str
    eq_tol: float


@dataclass(frozen=True)
class RecoveryMap:
    """Reversal channel anchored at sigma for a given forward channel."""

    channel: QuantumChannel
    anchor_sigma: np.ndarray
    forward: QuantumChannel


def dpi_check(
    rho: np.ndarray, sigma: np.ndarray, channel: QuantumChannel, alpha: float
) -> DpiReport:
    """Evaluate both sides of the processing inequality at order alpha."""
    lhs = srd(rho, sigma, alpha)
    rhs = srd(apply(channel, rho), apply(channel, sigma), alpha)
    if lhs.is_finite and rhs.is_finite:
        gap = lhs.value - rhs.value
    elif not lhs.is_finite and rhs.is_finite:
        gap = math.inf
    else:
        gap = math.nan
    return DpiReport(lhs, rhs, gap, alpha)


def _check_equality_preconditions(rho, sigma, alpha):
    """Reject support cases with no equality condition; return sigma's spectrum."""
    _, spec_sig, case = _classified_spectra(rho, sigma)
    if alpha > 1.0 and case != CONTAINED:
        raise SupportViolation(
            "equality condition needs supp(rho) inside supp(sigma) for alpha > 1"
        )
    if alpha < 1.0 and case == DISJOINT:
        raise DisjointSupports("equality condition undefined on orthogonal supports")
    return spec_sig


def _certificate(
    lhs_op: np.ndarray, rhs_op: np.ndarray, eq_tol: float
) -> EqualityCertificate:
    residual = max_abs(lhs_op - rhs_op)
    scale = max(1.0, max_abs(lhs_op))
    verdict = VERDICT_EQUAL if residual <= eq_tol * scale else VERDICT_NOT_EQUAL
    return EqualityCertificate(residual, lhs_op, rhs_op, verdict, eq_tol)


def equality_residual(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: QuantumChannel,
    alpha: float,
    eq_tol: float = EQ_TOL,
) -> EqualityCertificate:
    """Algebraic equality test: compares the critical observable of
    (rho, sigma) with the adjoint-pulled-back observable of the outputs."""
    spec_sig = _check_equality_preconditions(rho, sigma, alpha)
    lhs_op = _critical_observable(rho, spec_sig, alpha)
    out_h = h_hat(apply(channel, rho), apply(channel, sigma), alpha)
    rhs_op = apply_adjoint(channel, out_h)
    return _certificate(lhs_op, rhs_op, eq_tol)


def equality_residual_stinespring(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: QuantumChannel,
    alpha: float,
    eq_tol: float = EQ_TOL,
) -> EqualityCertificate:
    """Same certificate computed through the explicit unitary dilation.

    Channel outputs come from conjugating by the dilation unitary and
    tracing, and the adjoint from the isometry; kept as a cross-check for
    the Kraus route.
    """
    spec_sig = _check_equality_preconditions(rho, sigma, alpha)
    dil = stinespring(channel)
    lhs_op = _critical_observable(rho, spec_sig, alpha)
    out_h = h_hat(dil.apply(rho), dil.apply(sigma), alpha)
    rhs_op = dil.apply_adjoint(out_h)
    return _certificate(lhs_op, rhs_op, eq_tol)


def equality_residual_partial_trace(
    rho_ab: np.ndarray,
    sigma_ab: np.ndarray,
    dim_a: int,
    dim_b: int,
    alpha: float,
    eq_tol: float = EQ_TOL,
) -> EqualityCertificate:
    """Equality certificate specialized to tracing out the B factor.

    Compares the A-marginal critical observable, tensored with 1_B,
    against the joint critical observable.
    """
    spec_sig = _check_equality_preconditions(rho_ab, sigma_ab, alpha)
    rho_a = partial_trace(rho_ab, dim_a, dim_b, keep="A")
    sigma_a = partial_trace(sigma_ab, dim_a, dim_b, keep="A")
    lhs_op = tensor(h_hat(rho_a, sigma_a, alpha), np.eye(dim_b, dtype=np.complex128))
    rhs_op = _critical_observable(rho_ab, spec_sig, alpha)
    return _certificate(lhs_op, rhs_op, eq_tol)


# ---------------------------------------------------------------------------
# Recovery and sufficiency
# ---------------------------------------------------------------------------


def petz_recovery(sigma: np.ndarray, channel: QuantumChannel) -> RecoveryMap:
    """Recovery channel ``s^1/2 L^dag( L(s)^-1/2 . L(s)^-1/2 ) s^1/2``.

    Kraus operators are ``sigma^1/2 K^dag L(sigma)^-1/2`` (inverse taken on
    the support of the output anchor); the map is trace-preserving on that
    support and reverses the channel on sigma.
    """
    sig = as_complex_matrix(sigma)
    if sig.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch("sigma does not match the channel input")
    sqrt_sig = matrix_power_on_support(sig, 0.5)
    out = apply(channel, sig)
    inv_sqrt_out = matrix_power_on_support(out, -0.5)
    kraus = [sqrt_sig @ k.conj().T @ inv_sqrt_out for k in channel.kraus]
    rec = QuantumChannel(kraus, require_tp=False)
    return RecoveryMap(rec, sig, channel)


def sufficiency_test(
    rho: np.ndarray, sigma: np.ndarray, channel: QuantumChannel
) -> bool:
    """Whether the sigma-anchored recovery map also restores rho (to ``EQ_TOL``)."""
    rec = petz_recovery(sigma, channel)
    back = apply(rec.channel, apply(channel, rho))
    return max_abs(back - as_complex_matrix(rho)) <= EQ_TOL


# ---------------------------------------------------------------------------
# Violation search below alpha = 1/2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationSearchResult:
    """Most negative partial-trace gap found for two-qubit instances."""

    rho_ab: np.ndarray
    sigma_ab: np.ndarray
    gap: float
    alpha: float
    trials: int


def _two_qubit_gap(rho_ab, sigma_ab, alpha) -> float:
    lhs = srd(rho_ab, sigma_ab, alpha)
    rho_a = partial_trace(rho_ab, 2, 2, keep="A")
    sigma_a = partial_trace(sigma_ab, 2, 2, keep="A")
    rhs = srd(rho_a, sigma_a, alpha)
    if not (lhs.is_finite and rhs.is_finite):
        return math.inf
    return lhs.value - rhs.value


def _states_from_factors(g_rho: np.ndarray, g_sig: np.ndarray):
    m = g_rho @ g_rho.conj().T
    rho = hermitian_part(m / np.trace(m).real)
    m = g_sig @ g_sig.conj().T
    sig = hermitian_part(m / np.trace(m).real)
    return rho, sig


def dpi_violation_search(
    alpha: float, trials: int, seed: int, refine_steps: int = 200
) -> ViolationSearchResult:
    """Random search for processing-inequality violations at alpha < 1/2.

    Samples two-qubit pairs from Gaussian factors of mixed ranks,
    scores the partial-trace gap, then refines the best candidate by
    coordinate-wise perturbation of its factors.  A negative gap is a
    violation; for alpha in [1/2, 1) the search acts as a control and
    should find none beyond roundoff.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("search defined for alpha in (0, 1)")
    best = (math.inf, None, None)
    for t in range(trials):
        rng = substream(seed, t)
        rank_r = int(rng.integers(1, 5))
        rank_s = int(rng.integers(1, 5))
        g_rho = _complex_gaussian(rng, (4, rank_r))
        g_sig = _complex_gaussian(rng, (4, rank_s))
        rho, sig = _states_from_factors(g_rho, g_sig)
        gap = _two_qubit_gap(rho, sig, alpha)
        if gap < best[0]:
            best = (gap, g_rho, g_sig)

    gap, g_rho, g_sig = best
    if g_rho is None:
        raise RuntimeError("search produced no finite gap")

    # coordinate-wise refinement on the stacked real coordinates
    coords = np.concatenate(
        [
            g_rho.real.ravel(),
            g_rho.imag.ravel(),
            g_sig.real.ravel(),
            g_sig.imag.ravel(),
        ]
    )
    n_rho = g_rho.size
    shape_r, shape_s = g_rho.shape, g_sig.shape

    def unpack(c):
        gr = (c[:n_rho] + 1j * c[n_rho : 2 * n_rho]).reshape(shape_r)
        gs = (c[2 * n_rho : 2 * n_rho + g_sig.size] + 1j * c[2 * n_rho + g_sig.size :])
        return gr, gs.reshape(shape_s)

    def score(c):
        return _two_qubit_gap(*_states_from_factors(*unpack(c)), alpha)

    step = 0.1
    k = 0
    for _ in range(refine_steps):
        idx = k % coords.size
        k += 1
        improved = False
        for delta in (step, -step):
            trial_c = coords.copy()
            trial_c[idx] += delta
            val = score(trial_c)
            if val < gap:
                gap, coords = val, trial_c
                improved = True
                break
        if not improved and idx == coords.size - 1:
            step *= 0.5
            if step < 1e-6:
                break

    g_rho, g_sig = unpack(coords)
    rho, sig = _states_from_factors(g_rho, g_sig)
    return ViolationSearchResult(rho, sig, gap, alpha, trials)


# ---------------------------------------------------------------------------
# Fidelity-attaining measurement (the footnote phenomenon at alpha = 1/2)
# ---------------------------------------------------------------------------


def classical_fidelity(p, q) -> float:
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    return float(np.sum(np.sqrt(np.clip(pv, 0, None) * np.clip(qv, 0, None))))


def fidelity_attaining_povm(rho: np.ndarray, sigma: np.ndarray):
    """Projective measurement whose outcome statistics attain F(rho, sigma).

    Projectors onto an eigenbasis of :func:`fuchs_caves_observable` (Fuchs
    & Caves 1995) that keeps ker(sigma) apart, in any dimension.  Returns
    ``(povm, classical_fid)``, where ``classical_fid`` is the fidelity of
    the outcome distributions of rho and sigma and matches F(rho, sigma).
    """
    rho_m = as_complex_matrix(rho)
    sig_m = as_complex_matrix(sigma)
    # -1 on ker(sigma) keeps kernel vectors out of the eigenspaces on the support
    spec = positive_spectrum(sig_m)
    shift = spec.reconstruct(np.where(spec.support_mask(), 0.0, -1.0))
    vecs = hermitian_eig(fuchs_caves_observable(rho_m, sig_m) + shift).eigenvectors
    povm = [projector(v) for v in vecs.T]
    p = [np.trace(m @ rho_m).real for m in povm]
    q = [np.trace(m @ sig_m).real for m in povm]
    return povm, classical_fidelity(p, q)


def fuchs_caves_observable(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Geometric-mean observable whose eigenbasis attains the fidelity.

    ``sigma^-1/2 (sigma^1/2 rho sigma^1/2)^1/2 sigma^-1/2``; measuring in
    its eigenbasis reproduces F(rho, sigma) classically, which is how
    :func:`fidelity_attaining_povm` builds its measurement.
    """
    spec = positive_spectrum(sigma)
    isq = spec.on_support(lambda lam: lam**-0.5)
    sq = spec.on_support(lambda lam: lam**0.5)
    mid = matrix_power_on_support(hermitian_part(sq @ rho @ sq), 0.5)
    return hermitian_part(isq @ mid @ isq)


__all__ = [
    "CROSS_TOL",
    "EQ_TOL",
    "DpiReport",
    "EqualityCertificate",
    "RecoveryMap",
    "ViolationSearchResult",
    "classical_fidelity",
    "dpi_check",
    "dpi_violation_search",
    "equality_residual",
    "equality_residual_partial_trace",
    "equality_residual_stinespring",
    "fidelity_attaining_povm",
    "fuchs_caves_observable",
    "petz_recovery",
    "sufficiency_test",
]
