"""Divergences and entropies: trace functional, sandwiched and relative
Renyi divergences, relative entropy, max-relative entropy, the variational
functional with its optimizer, and Renyi (conditional) entropies.

All logarithms are base 2.  Infinite divergences are reported through an
explicit ``math.inf`` inside :class:`DivergenceValue`, never as a sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    DisjointSupports,
    NegativeEigenvalue,
    NonFiniteInput,
    OptimizerNonConvergence,
    PrecisionLoss,
    SupportViolation,
)
from .linalg import (
    Spectrum,
    _bare_eig,
    _checked_positive,
    hermitian_part,
    max_abs,
    # unused here, but kept bound: bench/tracer.py wraps ``divergences.minimize``
    # to count nfev, which now reads 0 for this module
    minimize,  # noqa: F401
    positive_spectrum,
)
from .states import BipartiteState, _purification, check_positive

#: Absolute tolerance for support-overlap classification.
SUPPORT_CLASSIFY_TOL = 1e-9

#: Iteration budget and residual target of the conditional-entropy fixed point.
_FP_MAX_ITER = 2000
_FP_TOL = 1e-12
#: Past (sigma, next sigma) pairs its Anderson step mixes with the current one.
_ANDERSON_DEPTH = 3

CONTAINED = "contained"
OVERLAPPING = "overlapping"
DISJOINT = "disjoint"
_CASES = (CONTAINED, OVERLAPPING, DISJOINT)


@dataclass(frozen=True)
class RenyiOrder:
    """Validated Renyi parameter with its derived exponents."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf) or self.alpha == 1.0:
            raise ValueError(
                f"alpha must be positive, finite and != 1, got {self.alpha}"
            )

    @property
    def gamma(self) -> float:
        """Sandwich exponent (1 - alpha) / (2 alpha)."""
        # halved last, as is dual_beta: 2 alpha overflows above about 9e307,
        # and halving commutes with rounding, so the bits are those of
        # dividing by 2 alpha wherever that is finite
        return (1.0 - self.alpha) / self.alpha * 0.5

    @property
    def dual_beta(self) -> float:
        """Dual order with 1/alpha + 1/beta = 2 (alpha >= 1/2 only)."""
        if self.alpha < 0.5:
            raise ValueError("dual order defined for alpha >= 1/2")
        if self.alpha == 0.5:
            return math.inf
        return self.alpha / (self.alpha - 0.5) * 0.5


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence together with the support relation of its arguments."""

    value: float
    support_case: str

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def classify_supports(rho: np.ndarray, sigma: np.ndarray) -> str:
    """Classify supp(rho) against supp(sigma): contained / overlapping / disjoint."""
    return _classified_spectra(rho, sigma)[4]


def _classified_spectra(rho, sigma):
    """:func:`_classified` of rho and sigma, each checked positive and
    symmetrized by :func:`linalg._checked_positive`: the public entries'
    classification of their arguments."""
    return _classified(_checked_positive(rho), _checked_positive(sigma))


def _classified(rho_pair, sigma_pair):
    """``(rho, sigma, their spectra, support case, overlaps)`` from the
    ``(matrix, spectrum)`` pairs of rho and sigma: checked ones for a
    caller's arguments, ``(m, _bare_eig(m))`` for an operator formed from
    checked input.  Callers form further operators from the two matrices;
    the overlaps ``c_ij = |<v_i|w_j>|^2`` of the eigenvectors are 0 off the
    two supports.  DimensionMismatch where rho and sigma differ in shape."""
    (rho_m, spec_rho), (sig_m, spec_sig) = rho_pair, sigma_pair
    if rho_m.shape != sig_m.shape:
        raise DimensionMismatch(f"rho is {rho_m.shape}, sigma is {sig_m.shape}")
    keep_rho, keep_sig = spec_rho.support_mask(), spec_sig.support_mask()
    # tr(P_rho P_sigma) and tr(P_rho) - tr(P_rho P_sigma) from the support bases
    cross = np.abs(spec_rho.eigenvectors.conj().T @ spec_sig.eigenvectors) ** 2
    supports = keep_rho[:, None] & keep_sig[None, :]
    overlap = np.sum(cross, where=supports)
    leak = keep_rho.sum() - overlap
    code = (leak > SUPPORT_CLASSIFY_TOL) * (1 + (overlap <= SUPPORT_CLASSIFY_TOL))
    return rho_m, sig_m, spec_rho, spec_sig, _CASES[code], cross * supports


def _sandwich(sigma_spec: Spectrum, p: float, m: np.ndarray):
    """``(s, bare spectrum of s m s)`` with ``s = sigma^p`` on supp(sigma),
    from sigma's spectrum and a checked m; per pair on stacks.  The
    conditional-entropy fixed point forms its own sandwich blockwise."""
    s = sigma_spec.on_support(lambda lam: lam**p)
    return s, _bare_eig(s @ m @ s)


def _undefined(alpha: float, case: str) -> bool:
    """Whether the support case leaves the trace functional undefined:
    alpha > 1 needs supp(rho) in supp(sigma), alpha < 1 overlap."""
    if alpha > 1.0:
        return case != CONTAINED
    return alpha < 1.0 and case == DISJOINT


def _require_defined(alpha: float, case: str) -> None:
    """Raise the error of a support case that leaves the trace functional
    undefined."""
    if _undefined(alpha, case) and alpha > 1.0:
        raise SupportViolation(
            "trace functional undefined: supp(rho) not contained in supp(sigma)"
        )
    if _undefined(alpha, case):
        raise DisjointSupports("trace functional undefined: orthogonal supports")


_LOG2 = np.frompyfunc(math.log2, 1, 1)
_LN2 = math.log(2.0)


def _log2(x):
    """``math.log2`` elementwise, a float for a 0-d ``x``.  numpy's vectorized
    log2 differs from the C library's in the last bit on some inputs; this
    keeps the stacked evaluation bit-identical to one pair at a time."""
    return math.log2(x) if x.ndim == 0 else np.asarray(_LOG2(x), dtype=float)


def _require_support(keep: np.ndarray, alpha: float) -> None:
    """Raise PrecisionLoss where a row of an ascending support mask keeps nothing."""
    if not keep[..., -1].all():
        raise PrecisionLoss(f"trace functional underflows to 0 at alpha = {alpha}")


def _log2_trace_power(lam: np.ndarray, alpha: float, keep: np.ndarray):
    """``(log2 sum(lam**alpha), ratio, rest)`` over the kept ``lam`` along
    the last axis (ascending, positive where kept), finite at any order: the
    sum is factored by the dominant kept ``top`` (the largest for alpha > 0,
    the smallest for alpha < 0), ``ratio = (lam / top)**alpha`` where kept
    and 0 elsewhere, and ``rest = sum(ratio)`` lies in ``[1, lam.shape[-1]]``.
    Raises PrecisionLoss where a row keeps nothing, or where ``alpha log2
    top`` leaves the float range (orders beyond about 1e305)."""
    _require_support(keep, alpha)
    if alpha > 0:
        top = lam[..., -1]
    else:
        top = np.minimum.reduce(lam, axis=-1, where=keep, initial=math.inf)
    ratio = np.power(lam / top[..., None], alpha, out=np.zeros_like(lam), where=keep)
    rest = np.add.reduce(ratio, axis=-1, where=keep)
    log_sum = alpha * _log2(top) + _log2(rest)
    if isinstance(log_sum, float):
        finite = math.isfinite(log_sum)
    else:
        finite = np.isfinite(log_sum).all()
    if not finite:
        raise PrecisionLoss(f"log2 of the power sum overflows at alpha = {alpha}")
    return log_sum, ratio, rest


def _exp2(x) -> float:
    """``2**x``, and ``math.inf`` from ``x = 1024`` on, out of the float range."""
    return math.pow(2.0, x) if x < 1024.0 else math.inf


def q_tilde(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Trace functional ``tr[(sigma^g rho sigma^g)^alpha]``, g=(1-a)/2a.

    Powers are taken on supports.  Returns ``math.inf`` when the functional
    exceeds the float range (large alpha).  Raises SupportViolation when
    alpha > 1 and supp(rho) is not inside supp(sigma), DisjointSupports when
    alpha < 1 and the supports are orthogonal, and PrecisionLoss where
    :func:`srd` does.
    """
    order = RenyiOrder(alpha)
    rho_m, _, _, spec_sig, case, _ = _classified_spectra(rho, sigma)
    _require_defined(alpha, case)
    x = _sandwich(spec_sig, order.gamma, rho_m)[1]
    return _exp2(_log2_trace_power(x.eigenvalues, alpha, x.support_mask())[0])


def srd(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> DivergenceValue:
    """Sandwiched Renyi divergence of order alpha (alpha = 1 is the
    relative-entropy limit and dispatches exactly).

    Raises PrecisionLoss when no eigenvalue of the sandwiched operator
    survives the support cutoff, which happens at extreme orders such as
    alpha = 1e-300.  The trace power is summed in the log domain, so large
    orders do not overflow.
    """
    return _srd(_classified_spectra(rho, sigma), alpha)


def _srd(pair, alpha: float) -> DivergenceValue:
    """:func:`srd` of a :func:`_classified` pair, ``inf`` where the support
    case leaves it undefined; at alpha = 1 the relative entropy
    ``sum lam log lam - sum lam_i c_ij log mu_j`` over the two spectra,
    PrecisionLoss for a rho with empty support."""
    rho_m, _, spec_rho, spec_sig, case, c = pair
    # the order is checked before the case: an invalid one raises on any pair
    if alpha != 1.0 and not _undefined(RenyiOrder(alpha).alpha, case):
        return DivergenceValue(float(_srd_values(rho_m, spec_sig, alpha)), case)
    if case != CONTAINED:
        return DivergenceValue(math.inf, case)
    lam, mu = spec_rho.eigenvalues, spec_sig.eigenvalues
    keep = spec_rho.support_mask()
    _require_support(keep, 1.0)
    log_mu = np.log2(mu, out=np.zeros_like(mu), where=spec_sig.support_mask())
    cross = float(np.sum(lam[:, None] * c * log_mu))
    ent = -float(_spectrum_entropy(lam, 1.0, keep))
    # normalized as for a unit-trace rho; the factor is 1 for states
    return DivergenceValue((ent - cross) / float(np.sum(lam[keep])), case)


def _srd_values(rho: np.ndarray, sigma_spec: Spectrum, alpha: float):
    """:func:`srd` at alpha != 1 of rho against sigma's spectrum, per pair on
    stacks ``(..., d, d)``, for pairs the functional is defined on (the
    caller decides which); PrecisionLoss where a sandwich keeps nothing."""
    x = _sandwich(sigma_spec, RenyiOrder(alpha).gamma, rho)[1]
    log_q = _log2_trace_power(x.eigenvalues, alpha, x.support_mask())[0]
    tr_rho = rho.trace(axis1=-2, axis2=-1).real
    return (log_q - _log2(tr_rho)) / (alpha - 1.0)


def rre(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> DivergenceValue:
    """Relative Renyi entropy ``log tr(rho^a sigma^(1-a)) / (a-1)``, the trace
    ``sum lam_i^a mu_j^(1-a) c_ij`` over the overlaps of the two spectra
    summed in the log domain, so no power of lam or mu leaves the range;
    raises PrecisionLoss where a term's logarithm does (orders near 1e308)."""
    if alpha == 1.0:
        return qre(rho, sigma)
    RenyiOrder(alpha)
    rho_m, _, spec_rho, spec_sig, case, c = _classified_spectra(rho, sigma)
    if _undefined(alpha, case):
        return DivergenceValue(math.inf, case)
    _require_support(spec_rho.support_mask(), alpha)
    i, j = np.nonzero(c)
    lam, mu = spec_rho.eigenvalues[i], spec_sig.eigenvalues[j]
    with np.errstate(over="ignore", invalid="ignore"):
        logs = alpha * np.log2(lam) + (1.0 - alpha) * np.log2(mu) + np.log2(c[i, j])
    if not np.isfinite(logs).all():
        raise PrecisionLoss(f"log-domain terms overflow at alpha = {alpha}")
    log_q = float(np.logaddexp2.reduce(logs))
    tr_rho = float(np.trace(rho_m).real)
    return DivergenceValue((log_q - math.log2(tr_rho)) / (alpha - 1.0), case)


def qre(rho: np.ndarray, sigma: np.ndarray) -> DivergenceValue:
    """Relative entropy ``tr(rho (log rho - log sigma))`` in bits: the
    order-1 :func:`srd`; PrecisionLoss for a rho with empty support."""
    return srd(rho, sigma, 1.0)


def d_max(rho: np.ndarray, sigma: np.ndarray) -> DivergenceValue:
    """Max-relative entropy ``log lambda_max(sigma^-1/2 rho sigma^-1/2)``;
    PrecisionLoss for a rho with empty support."""
    rho_m, _, spec_rho, spec_sig, case, _ = _classified_spectra(rho, sigma)
    if case != CONTAINED:
        return DivergenceValue(math.inf, case)
    _require_support(spec_rho.support_mask(), math.inf)
    lam_max = float(np.max(_sandwich(spec_sig, -0.5, rho_m)[1].eigenvalues))
    return DivergenceValue(math.log2(lam_max), case)


def kl(p, q) -> float:
    """Classical Kullback-Leibler divergence in bits, with 0 log 0 = 0.

    Raises NonFiniteInput for a NaN or infinite entry and NegativeEigenvalue
    for a negative one (the spectrum of a diagonal state)."""
    pv = np.asarray(p, dtype=float).reshape(-1)
    qv = np.asarray(q, dtype=float).reshape(-1)
    if pv.shape != qv.shape:
        raise ValueError("distributions must have equal length")
    both = np.concatenate([pv, qv])
    if not np.isfinite(both).all():
        raise NonFiniteInput("distribution has a NaN or infinite entry")
    if (both < 0.0).any():
        raise NegativeEigenvalue("distribution has a negative entry")
    mask = pv > 0.0
    if np.any(qv[mask] <= 0.0):
        raise AbsoluteContinuityViolation("P puts mass where Q vanishes")
    return float(np.sum(pv[mask] * np.log2(pv[mask] / qv[mask])))


# ---------------------------------------------------------------------------
# Variational form of the trace functional
# ---------------------------------------------------------------------------


def f_alpha(h: np.ndarray, rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Variational functional ``a tr(rho H) - (a-1) tr[(s^-g H s^-g)^(a/(a-1))]``.

    Its optimum over H >= 0 (sup for alpha > 1, inf for alpha in [1/2, 1))
    is the trace functional, attained at :func:`h_hat`.  When the power sum
    exceeds the float range (alpha near 1) the value is ``-inf`` for
    alpha > 1 and ``+inf`` for alpha < 1; it is 0 for an H off supp(sigma).
    H, rho and sigma are each checked positive, and must share one shape.
    """
    order = RenyiOrder(alpha)
    h_m, rho_m = check_positive(h), check_positive(rho)
    spec_sig = positive_spectrum(sigma)
    if not h_m.shape == rho_m.shape == spec_sig.eigenvectors.shape:
        raise DimensionMismatch("H, rho and sigma differ in shape")
    _, y = _sandwich(spec_sig, -order.gamma, h_m)
    keep = y.support_mask()
    p = alpha / (alpha - 1.0)
    term = _exp2(_log2_trace_power(y.eigenvalues, p, keep)[0]) if keep.any() else 0.0
    lead = float(np.trace(rho_m @ h_m).real)
    return alpha * lead - (alpha - 1.0) * term


def h_hat(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> np.ndarray:
    """Critical observable ``sigma^g (sigma^g rho sigma^g)^(a-1) sigma^g``;
    raises where :func:`q_tilde` does."""
    rho_m, _, _, spec_sig, case, _ = _classified_spectra(rho, sigma)
    _require_defined(alpha, case)
    return _critical_observable(rho_m, spec_sig, alpha)


def _critical_observable(
    rho: np.ndarray, sigma_spec: Spectrum, alpha: float
) -> np.ndarray:
    """:func:`h_hat` on a checked rho and a decomposed sigma, case unchecked."""
    s_g, x = _sandwich(sigma_spec, RenyiOrder(alpha).gamma, rho)
    _require_support(x.support_mask(), alpha)
    core = x.on_support(lambda lam: lam ** (alpha - 1.0))
    return hermitian_part(s_g @ core @ s_g)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def _spectrum_entropy(lam: np.ndarray, alpha: float, keep: np.ndarray):
    """Renyi entropy ``log2 sum(lam**a) / (1-a)`` of the kept ``lam`` along
    the last axis (ascending, positive where kept), with the 0, 1 and inf
    orders as limits; per row on stacks of spectra."""
    if alpha == 1.0:
        logs = np.log2(lam, out=np.zeros_like(lam), where=keep)
        return -np.add.reduce(lam * logs, axis=-1, where=keep)
    if alpha == math.inf:
        return -np.log2(lam[..., -1])
    if alpha == 0.0:
        return np.log2(keep.sum(axis=-1))
    return _log2_trace_power(lam, alpha, keep)[0] / (1.0 - alpha)


def _spectrum_entropy_slope(p: np.ndarray, alpha: float, keep: np.ndarray):
    """``(h, g)`` for unit-sum spectra ``p`` along the last axis, as
    :func:`_spectrum_entropy` takes them: ``h = S_alpha(p)``, and
    ``g_k = d(w S_alpha(q / w)) / dq_k`` at ``q = w p``, ``w = sum(q)``, the
    slope of a weighted entropy in its unnormalized spectrum (it depends on
    p alone).  g is 0 on dropped values; on kept ones it is

    - ``h + alpha / ((1 - alpha) ln 2) * (p_k^(alpha-1) / sum(p^alpha) - 1)``
      at finite alpha other than 0 and 1;
    - ``-log2 p_k`` at alpha = 1, ``h`` at alpha = 0;
    - ``h + (1 - [k = top] / p_top) / ln 2`` at alpha = inf.

    Through ``q = s**2`` the slope in a singular value s is ``2 s g``, whose
    power term scales as ``s^(2 alpha - 1)``: finite as s -> 0 for
    alpha > 1/2.  For alpha <= 1/2 it grows without bound there, but only
    values above the support cutoff are kept, so g stays finite: it is the
    slope of the entropy as evaluated, with the values under the cutoff
    counted as 0.
    """
    if alpha == 1.0:
        logs = np.log2(p, out=np.zeros_like(p), where=keep)
        return -np.add.reduce(p * logs, axis=-1, where=keep), -logs
    if alpha == 0.0 or alpha == math.inf:
        h = _spectrum_entropy(p, alpha, keep)
        slope = h[..., None] + np.zeros_like(p)
        if alpha == math.inf:
            slope += 1.0 / _LN2
            slope[..., -1] -= 1.0 / (p[..., -1] * _LN2)
    else:
        log_sum, ratio, rest = _log2_trace_power(p, alpha, keep)
        h = log_sum / (1.0 - alpha)
        # p_k^(alpha-1) / sum(p^alpha) = ratio_k / (p_k rest), in range
        power = np.divide(ratio, p * rest[..., None], out=np.zeros_like(p), where=keep)
        slope = h[..., None] + alpha / ((1.0 - alpha) * _LN2) * (power - 1.0)
    return h, np.where(keep, slope, 0.0)


def _check_entropy_order(alpha: float) -> None:
    """Entropies take every order in [0, inf]: raise ValueError naming
    alpha for a negative or NaN one."""
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    return renyi_entropy(rho, 1.0)


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    """Renyi entropy ``log tr(rho^a) / (1-a)``; handles 0, 1 and inf orders.

    Raises NegativeEigenvalue when rho is not positive semidefinite and
    PrecisionLoss when its support is empty."""
    _check_entropy_order(alpha)
    return _entropy(positive_spectrum(rho), alpha)


def _entropy(spec: Spectrum, alpha: float) -> float:
    """:func:`renyi_entropy` from a checked spectrum."""
    keep = spec.support_mask()
    _require_support(keep, alpha)
    return float(_spectrum_entropy(spec.eigenvalues, alpha, keep))


def conditional_entropy(state: BipartiteState) -> float:
    """Von Neumann S(AB) - S(B), with S(AB) from the state's spectrum."""
    return _entropy(state.spectrum, 1.0) - _entropy(_bare_eig(state.marginal_b()), 1.0)


# ---------------------------------------------------------------------------
# Renyi conditional entropy: optimization over the B marginal
# ---------------------------------------------------------------------------


def _fixed_point_step(
    rho_ab: np.ndarray,
    dim_a: int,
    dim_b: int,
    sigma_spec: Spectrum,
    order: RenyiOrder,
    required_rank: int,
):
    """One multiplicative update for the conditional-entropy minimization,
    from the spectrum of the current sigma_B.

    Returns ``(value, next_sigma)`` where ``value`` is
    D(rho_AB || 1_A (x) sigma_B) at the current sigma and ``next_sigma`` is
    the normalized ``tr_A[((1 (x) sigma^g) rho (1 (x) sigma^g))^a]``
    (``None`` when the value is infinite).  One eigendecomposition per call,
    bare (:func:`linalg._bare_eig`): the sandwich is formed here from the
    checked state, and only phase-invariant functions of it are read.
    """
    alpha = order.alpha
    keep = sigma_spec.support_mask()
    if alpha > 1.0 and int(np.sum(keep)) < required_rank:
        return math.inf, None
    lam = sigma_spec.eigenvalues
    s = sigma_spec.reconstruct(
        np.power(lam, order.gamma, out=np.zeros_like(lam), where=keep)
    )
    # 1 (x) s acts on each A block: on the rows from the left, then on the
    # columns from the right, so no Kronecker product is formed
    d = dim_a * dim_b
    left = (s @ rho_ab.reshape(dim_a, dim_b, d)).reshape(d, dim_a, dim_b)
    x = _bare_eig((left @ s).reshape(d, d))
    x_keep = x.support_mask()
    if not x_keep[-1]:
        return math.inf, None
    # tr X^a = top^a q: the scale top cancels from the normalized next sigma
    log_q, power, q = _log2_trace_power(x.eigenvalues, alpha, x_keep)
    xa = x.reconstruct(power).reshape(dim_a, dim_b, dim_a, dim_b)
    nxt = hermitian_part(np.einsum("abac->bc", xa) / q)
    return log_q / (alpha - 1.0), nxt


def conditional_renyi(state: BipartiteState, alpha: float):
    """Renyi conditional entropy ``-min_sigma D_a(rho_AB || 1_A (x) sigma_B)``.

    Returns ``(value, sigma_b)`` with the optimizing state.  The minimum is
    located by a damped multiplicative fixed-point iteration
    ``sigma <- tr_A[((1 (x) sigma^g) rho (1 (x) sigma^g))^a]`` (normalized),
    whose stationary point is the unique optimum of this convex problem.
    Once per iterate, damped or not, an Anderson step mixes the last
    ``_ANDERSON_DEPTH`` (sigma, next sigma) pairs with the current one, and
    is taken if the value does not rise and the residual falls to 0.9 of
    the current one or less; otherwise the plain step is halved whenever
    the value would rise.  The iteration stops when the map moves sigma by
    less than ``_FP_TOL`` in max-entry norm, after ``_FP_MAX_ITER`` steps,
    or when damping falls below 1e-3; the best iterate is returned.

    The state was checked when it was made.  Its marginal rho_B, the
    sandwich, the plain or damped candidate and the Anderson candidate are
    operators formed from the checked state, so they are decomposed bare
    (no check, no phase convention); every later use of those spectra is
    phase-invariant.  PrecisionLoss for a state with empty support, as at
    alpha = 1.
    """
    if alpha < 0.5:
        raise ValueError(f"alpha must be >= 1/2, got {alpha}")
    if alpha == 1.0:
        return conditional_entropy(state), state.marginal_b()
    order = RenyiOrder(alpha)
    rho_ab, dim_a, dim_b = state.mat, state.dim_a, state.dim_b
    rho_b = state.marginal_b()
    spec_b = _bare_eig(rho_b)
    _require_support(spec_b.support_mask(), alpha)
    r = int(np.sum(spec_b.support_mask()))

    def psd_state(m):
        # project onto states of full rank on supp(rho_B): extrapolated
        # candidates must not collapse the support, or the multiplicative
        # map gets trapped on a face of the simplex; returns the state and
        # its spectrum, the clipped values on the same eigenvectors
        spec = _bare_eig(m)
        vals = np.clip(spec.eigenvalues, 0.0, None)
        if float(np.sum(vals)) <= 0.0:
            return None, None
        vals = np.clip(vals, float(np.max(vals)) * 1e-8, None)
        projected = Spectrum(vals / np.sum(vals), spec.eigenvectors)
        return hermitian_part(projected.reconstruct()), projected

    sigma = rho_b.copy()
    val, nxt = _fixed_point_step(rho_ab, dim_a, dim_b, spec_b, order, r)
    best_val, best_sigma = val, sigma
    damp = 1.0
    history = []  # accepted (sigma, nxt) pairs before the current one, oldest first
    anderson_tried = False  # the current iterate's Anderson candidate was scored
    for _ in range(_FP_MAX_ITER):
        if nxt is None:
            break
        cur_res = max_abs(nxt - sigma)
        if cur_res < _FP_TOL:
            break
        accepted = None
        if history and not anderson_tried:
            anderson_tried = True
            mixed = _anderson_candidate(history, sigma, nxt)
            acc, acc_spec = (None, None) if mixed is None else psd_state(mixed)
            if acc is not None:
                acc_val, acc_nxt = _fixed_point_step(
                    rho_ab, dim_a, dim_b, acc_spec, order, r
                )
                if (
                    acc_nxt is not None
                    and acc_val <= val + 1e-13
                    and max_abs(acc_nxt - acc) <= 0.9 * cur_res
                ):
                    accepted = (acc, acc_val, acc_nxt)
        if accepted is None:
            if damp >= 1.0:
                candidate = nxt
            else:
                candidate = hermitian_part((1.0 - damp) * sigma + damp * nxt)
            cand_val, cand_nxt = _fixed_point_step(
                rho_ab, dim_a, dim_b, _bare_eig(candidate), order, r
            )
            if cand_val > val + 1e-13:
                damp *= 0.5
                if damp < 1e-3:
                    break
                continue
            accepted = (candidate, cand_val, cand_nxt)
        history = (history + [(sigma, nxt)])[-_ANDERSON_DEPTH:]
        anderson_tried = False
        sigma, val, nxt = accepted
        if val < best_val:
            best_val, best_sigma = val, sigma

    if not math.isfinite(best_val):
        raise OptimizerNonConvergence(
            "no finite divergence value found", best_value=best_val
        )
    return -best_val, best_sigma


def _anderson_candidate(history, sigma, nxt):
    """``nxt - sum_j c_j (nxt - nxt_j)`` over the ``(sigma_j, nxt_j)`` of
    ``history``, the real c minimizing ``|r - sum_j c_j (r - r_j)|`` for the
    residuals ``r = nxt - sigma``; None if the ``r - r_j`` are dependent."""
    res = nxt - sigma
    diffs = np.array([res - n + s for s, n in history]).reshape(len(history), -1)
    # complex entries as (re, im) pairs: real coefficients, stacked parts
    coef, _, rank, _ = np.linalg.lstsq(diffs.view(float).T, res.ravel().view(float))
    if rank < len(history):
        return None
    return nxt - sum(c * (nxt - n) for c, (_, n) in zip(coef, history))


def duality_gap(state: BipartiteState, alpha: float) -> float:
    """|S_a(A|B) + S_b(A|C)| over a purification, with 1/a + 1/b = 2 (b = 1
    at a = 1); the purification comes from the state's spectrum, and rho_AC
    is checked when its state is made."""
    if alpha <= 0.5:
        raise ValueError("duality pair requires alpha > 1/2")
    beta = 1.0 if alpha == 1.0 else RenyiOrder(alpha).dual_beta
    value_b, _ = conditional_renyi(state, alpha)
    psi, dim_c = _purification(state.spectrum)
    dim_a, dim_b = state.dim_a, state.dim_b
    # rows indexed by A (x) C, columns by B: tracing out B is M M^dag
    m = psi.reshape(dim_a, dim_b, dim_c).transpose(0, 2, 1).reshape(-1, dim_b)
    value_c, _ = conditional_renyi(BipartiteState(m @ m.conj().T, dim_a, dim_c), beta)
    return abs(value_b + value_c)
