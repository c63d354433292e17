"""Data processing inequality: gap reports, the algebraic equality
certificate, recovery maps, sufficiency, and the below-1/2 violation search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import QuantumChannel, apply, apply_adjoint, stinespring
from .divergences import (
    DivergenceValue,
    _classified,
    _classified_spectra,
    _critical_observable,
    _require_defined,
    _sandwich,
    _srd,
    _srd_values,
)
from .errors import DimensionMismatch
from .linalg import (
    _bare_eig,
    _checked_positive,
    _psd_floor,
    check_hermitian,
    hermitian_part,
    max_abs,
    partial_trace,
    positive_spectrum,
    tensor,
)
from .states import _complex_gaussian, check_positive, projector, substream

#: Relative threshold on the operator residual of the equality certificate.
EQ_TOL = 1e-7

#: Threshold on |divergence gap| used when cross-checking certificates.
CROSS_TOL = 1e-6

#: Trials the violation search scores in one stack (under 1 MB of arrays).
_SEARCH_BATCH = 200

#: Refinement steps the violation search scores ahead in one stack.
_REFINE_AHEAD = 6

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
    """Evaluate both sides of the processing inequality at order alpha.

    rho and sigma are checked once; their images, formed from the checked
    pair, are classified bare."""
    pair = _classified_spectra(rho, sigma)
    images = [hermitian_part(apply(channel, m)) for m in pair[:2]]
    lhs = _srd(pair, alpha)
    rhs = _srd(_classified(*((m, _bare_eig(m)) for m in images)), alpha)
    # inf - rhs is inf where only the input side diverges
    gap = lhs.value - rhs.value if rhs.is_finite else math.nan
    return DpiReport(lhs, rhs, gap, alpha)


def _certified(forward, adjoint, rho, sigma, alpha, eq_tol) -> EqualityCertificate:
    """Equality certificate of one route: the critical observable of
    (rho, sigma) against that of (forward(rho), forward(sigma)) pulled back
    by ``adjoint``.  The outputs need no support check: a channel keeps
    supp(rho) inside supp(sigma), and since fidelity does not decrease
    under a channel, overlapping supports stay overlapping; and a channel
    keeps them positive, so the image of the checked sigma is decomposed
    bare.  ValueError for an ``eq_tol`` that is not finite and >= 0, which
    would fix the verdict whatever the residual."""
    if not 0.0 <= eq_tol < math.inf:
        raise ValueError(f"eq_tol must be finite and >= 0, got {eq_tol}")
    rho_m, sig_m, _, spec_sig, case, _ = _classified_spectra(rho, sigma)
    _require_defined(alpha, case)
    lhs_op = _critical_observable(rho_m, spec_sig, alpha)
    out_spec = _bare_eig(forward(sig_m))
    rhs_op = adjoint(_critical_observable(forward(rho_m), out_spec, alpha))
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
    fwd, adj = partial(apply, channel), partial(apply_adjoint, channel)
    return _certified(fwd, adj, rho, sigma, alpha, eq_tol)


def equality_residual_stinespring(
    rho: np.ndarray,
    sigma: np.ndarray,
    channel: QuantumChannel,
    alpha: float,
    eq_tol: float = EQ_TOL,
) -> EqualityCertificate:
    """Same certificate computed through the Stinespring isometry V.

    Channel outputs are ``tr_E(V rho V^dag)`` and the pull-back is
    ``V^dag (1_E (x) omega) V``; kept as a cross-check of the Kraus route,
    of V's environment-first layout and of the partial trace over E.
    """
    dil = stinespring(channel)
    return _certified(dil.apply, dil.apply_adjoint, rho, sigma, alpha, eq_tol)


def equality_residual_partial_trace(
    rho_ab: np.ndarray,
    sigma_ab: np.ndarray,
    dim_a: int,
    dim_b: int,
    alpha: float,
    eq_tol: float = EQ_TOL,
) -> EqualityCertificate:
    """Equality certificate specialized to tracing out the B factor.

    Compares the joint critical observable against the A-marginal one
    tensored with 1_B.
    """
    fwd = partial(partial_trace, dim_a=dim_a, dim_b=dim_b, keep="A")
    eye_b = np.eye(dim_b, dtype=np.complex128)
    return _certified(fwd, lambda h: tensor(h, eye_b), rho_ab, sigma_ab, alpha, eq_tol)


# ---------------------------------------------------------------------------
# Recovery and sufficiency
# ---------------------------------------------------------------------------


def petz_recovery(sigma: np.ndarray, channel: QuantumChannel) -> RecoveryMap:
    """Recovery channel ``s^1/2 L^dag( L(s)^-1/2 . L(s)^-1/2 ) s^1/2``.

    Kraus operators are ``sigma^1/2 K^dag L(sigma)^-1/2`` (inverse taken on
    the support of the output anchor); the map is trace-preserving on that
    support and reverses the channel on sigma.  The output anchor, formed
    from the checked sigma, is decomposed bare.
    """
    sig, spec = _checked_positive(sigma)
    if sig.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch("sigma does not match the channel input")
    sqrt_sig = spec.on_support(lambda lam: lam**0.5)
    out = apply(channel, sig)
    inv_sqrt_out = _bare_eig(out).on_support(lambda lam: lam**-0.5)
    kraus = sqrt_sig @ channel.kraus.conj().mT @ inv_sqrt_out
    rec = QuantumChannel(kraus, require_tp=False)
    return RecoveryMap(rec, sig, channel)


def sufficiency_test(
    rho: np.ndarray, sigma: np.ndarray, channel: QuantumChannel
) -> bool:
    """Whether the sigma-anchored recovery map also restores rho (to ``EQ_TOL``)."""
    return _recovery_error(rho, sigma, channel) <= EQ_TOL


def _recovery_error(rho, sigma, channel) -> float:
    """Max-entry distance between rho and its image under the channel
    followed by the sigma-anchored recovery map; rho is checked finite,
    Hermitian and positive semidefinite."""
    rho_m = check_positive(rho)
    rec = petz_recovery(sigma, channel)
    return max_abs(apply(rec.channel, apply(channel, rho_m)) - rho_m)


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


def _two_qubit_gap(rho_ab, sigma_ab, alpha) -> np.ndarray:
    """Partial-trace gaps ``D(rho_AB||sigma_AB) - D(rho_A||sigma_A)`` per
    pair on stacks of two-qubit pairs, which the search forms symmetrized
    from its own Gaussian factors.  Generic factors overlap in support, so
    at alpha < 1 every pair is defined: each side is scored from sigma's
    spectrum alone, with no support classification."""
    rho_a, sig_a = (partial_trace(m, 2, 2, keep="A") for m in (rho_ab, sigma_ab))
    lhs = _srd_values(rho_ab, _bare_eig(sigma_ab), alpha)
    return lhs - _srd_values(rho_a, _bare_eig(sig_a), alpha)


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """``m / tr(m)``, symmetrized; per matrix on stacks."""
    return hermitian_part(m / m.trace(axis1=-2, axis2=-1).real[..., None, None])


def _states_from_factors(g_rho: np.ndarray, g_sig: np.ndarray):
    return _unit_trace(g_rho @ g_rho.conj().mT), _unit_trace(g_sig @ g_sig.conj().mT)


def _draw_factors(seed: int, t: int):
    """Gaussian factors of trial t: ranks and entries from ``substream(seed, t)``."""
    rng = substream(seed, t)
    rank_r, rank_s = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    return _complex_gaussian(rng, (4, rank_r)), _complex_gaussian(rng, (4, rank_s))


def dpi_violation_search(
    alpha: float, trials: int, seed: int, refine_steps: int = 200
) -> ViolationSearchResult:
    """Random search for processing-inequality violations at alpha < 1/2.

    Samples two-qubit pairs from Gaussian factors of mixed ranks,
    scores the partial-trace gap, then refines the best candidate by
    coordinate-wise perturbation of its factors.  A negative gap is a
    violation; for alpha in [1/2, 1) the search acts as a control and
    should find none beyond roundoff.  Trials are scored in stacks of
    ``_SEARCH_BATCH``; the first trial with the smallest gap wins.  The
    refinement scores ``_REFINE_AHEAD`` steps ahead in one stack, with the
    result of scoring one step at a time.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("search defined for alpha in (0, 1)")
    if trials < 1:
        raise ValueError(f"search needs at least one trial, got {trials}")
    refine_steps = operator.index(refine_steps)
    best = (math.inf, None, None)
    for start in range(0, trials, _SEARCH_BATCH):
        stop = min(start + _SEARCH_BATCH, trials)
        factors = [_draw_factors(seed, t) for t in range(start, stop)]
        grams = [[g @ g.conj().T for g in pair] for pair in factors]
        rho, sig = (_unit_trace(np.stack(side)) for side in zip(*grams))
        gaps = _two_qubit_gap(rho, sig, alpha)
        i = int(np.argmin(gaps))
        if gaps[i] < best[0]:
            best = (float(gaps[i]), *factors[i])

    gap, g_rho, g_sig = best

    # coordinate-wise refinement on the stacked real coordinates
    coords = np.concatenate(
        [
            g_rho.real.ravel(),
            g_rho.imag.ravel(),
            g_sig.real.ravel(),
            g_sig.imag.ravel(),
        ]
    )
    n, n_rho, n_sig = coords.size, g_rho.size, g_sig.size

    def unpack(c):
        """Factors of the coordinates ``c``, per row on stacks."""
        lead = c.shape[:-1]
        gr = c[..., :n_rho] + 1j * c[..., n_rho : 2 * n_rho]
        gs = c[..., 2 * n_rho : 2 * n_rho + n_sig] + 1j * c[..., 2 * n_rho + n_sig :]
        return gr.reshape(lead + g_rho.shape), gs.reshape(lead + g_sig.shape)

    def candidate_gaps(c):
        return _two_qubit_gap(*_states_from_factors(*unpack(c)), alpha)

    # Step k perturbs coordinate k % n by +step, then by -step, and keeps
    # the first that lowers the gap; the step halves after an unimproved
    # last coordinate.  Until a step improves, the sweep is fixed by
    # (k, step), so the next _REFINE_AHEAD steps are planned as if none
    # improves, scored in one stack, and the first improvement is kept.
    step, k = 0.1, 0
    while k < refine_steps and step >= 1e-6:
        plan = []  # (step index, step size) of the steps ahead
        j, s = k, step
        while j < min(k + _REFINE_AHEAD, refine_steps) and s >= 1e-6:
            plan.append((j, s))
            j += 1
            if j % n == 0:
                s *= 0.5
        cols = np.repeat([i % n for i, _ in plan], 2)
        deltas = np.ravel([(s_i, -s_i) for _, s_i in plan])
        cands = np.repeat(coords[None], cols.size, axis=0)
        cands[np.arange(cols.size), cols] += deltas
        try:
            vals = candidate_gaps(cands)
        except ValueError:
            # a candidate past the first improvement is never scored one
            # step at a time; scoring alone up to it raises where that does
            vals = (candidate_gaps(c) for c in cands)
        hit = next(((i, v) for i, v in enumerate(vals) if v < gap), None)
        if hit is None:
            k, step = j, s
        else:
            i, v = hit
            coords, gap = cands[i], float(v)
            k, step = plan[i // 2][0] + 1, plan[i // 2][1]

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
    The inputs are checked as :func:`fuchs_caves_observable` checks them;
    the projectors are blind to phases, so the observable is decomposed bare.
    """
    rho_m = check_hermitian(rho)
    sig_m, spec = _checked_positive(sigma)
    # -1 on ker(sigma) keeps kernel vectors out of the eigenspaces on the support
    shift = spec.reconstruct(np.where(spec.support_mask(), 0.0, -1.0))
    vecs = _bare_eig(_fuchs_caves(rho_m, spec) + shift).eigenvectors
    povm = [projector(v) for v in vecs.T]
    p = [np.trace(m @ rho_m).real for m in povm]
    q = [np.trace(m @ sig_m).real for m in povm]
    return povm, classical_fidelity(p, q)


def fuchs_caves_observable(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Geometric-mean observable whose eigenbasis attains the fidelity.

    ``sigma^-1/2 (sigma^1/2 rho sigma^1/2)^1/2 sigma^-1/2``; measuring in
    its eigenbasis reproduces F(rho, sigma) classically, which is how
    :func:`fidelity_attaining_povm` builds its measurement.  rho is checked
    positive where the observable reads it, on supp(sigma).
    """
    return _fuchs_caves(check_hermitian(rho), positive_spectrum(sigma))


def _fuchs_caves(rho: np.ndarray, sigma_spec) -> np.ndarray:
    """:func:`fuchs_caves_observable` on a Hermitian rho and a decomposed
    sigma; the sandwich's floor is rho's positivity check.  DimensionMismatch
    where rho and sigma differ in shape."""
    if rho.shape != (shape := sigma_spec.eigenvectors.shape):
        raise DimensionMismatch(f"rho is {rho.shape}, sigma is {shape}")
    x = _psd_floor(_sandwich(sigma_spec, 0.5, rho)[1])
    isq = sigma_spec.on_support(lambda lam: lam**-0.5)
    return hermitian_part(isq @ x.on_support(lambda lam: lam**0.5) @ isq)


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
