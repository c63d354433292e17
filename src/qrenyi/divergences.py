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
from scipy.optimize import minimize

from .errors import (
    AbsoluteContinuityViolation,
    DisjointSupports,
    OptimizerNonConvergence,
    SupportViolation,
)
from .linalg import (
    DEFAULT_CUTOFF,
    Spectrum,
    as_complex_matrix,
    hermitian_eig,
    hermitian_part,
    matrix_power_on_support,
    max_abs,
    partial_trace,
    positive_spectrum,
)
from .states import BipartiteState, projector, purify

#: Absolute tolerance for support-overlap classification.
SUPPORT_CLASSIFY_TOL = 1e-9

#: Tolerance on optimized divergence values.
OPT_TOL = 1e-6

CONTAINED = "contained"
OVERLAPPING = "overlapping"
DISJOINT = "disjoint"


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
        return (1.0 - self.alpha) / (2.0 * self.alpha)

    @property
    def dual_beta(self) -> float:
        """Dual order with 1/alpha + 1/beta = 2 (alpha >= 1/2 only)."""
        if self.alpha < 0.5:
            raise ValueError("dual order defined for alpha >= 1/2")
        if self.alpha == 0.5:
            return math.inf
        return self.alpha / (2.0 * self.alpha - 1.0)


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence together with the support relation of its arguments."""

    value: float
    support_case: str

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def classify_supports(
    rho: np.ndarray,
    sigma: np.ndarray,
    cutoff: float = DEFAULT_CUTOFF,
    tol: float = SUPPORT_CLASSIFY_TOL,
) -> str:
    """Classify supp(rho) against supp(sigma): contained / overlapping / disjoint."""
    return _classified_spectra(rho, sigma, cutoff, tol)[2]


def _classified_spectra(rho, sigma, cutoff, tol=SUPPORT_CLASSIFY_TOL):
    """``(spectrum of rho, spectrum of sigma, support case)``, both spectra
    checked positive, so callers need not decompose rho or sigma again."""
    spec_rho = positive_spectrum(rho, cutoff)
    spec_sig = positive_spectrum(sigma, cutoff)
    _, v_rho = spec_rho.supported(cutoff)
    _, v_sig = spec_sig.supported(cutoff)
    # tr(P_rho P_sigma) and tr(P_rho) - tr(P_rho P_sigma) from the support bases
    overlap = float(np.sum(np.abs(v_rho.conj().T @ v_sig) ** 2))
    leak = v_rho.shape[1] - overlap
    if leak <= tol:
        case = CONTAINED
    elif overlap <= tol:
        case = DISJOINT
    else:
        case = OVERLAPPING
    return spec_rho, spec_sig, case


def _sandwich_eigenvalues(
    rho: np.ndarray, sigma_spec: Spectrum, order: RenyiOrder, cutoff: float
) -> np.ndarray:
    """Supported eigenvalues of ``sigma^g rho sigma^g``."""
    s_g = sigma_spec.on_support(lambda lam: lam**order.gamma, cutoff)
    x = hermitian_part(s_g @ rho @ s_g)
    return hermitian_eig(x).supported(cutoff)[0]


def q_tilde(
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
) -> float:
    """Trace functional ``tr[(sigma^g rho sigma^g)^alpha]``, g=(1-a)/2a.

    Powers are taken on supports.  Raises SupportViolation when alpha > 1
    and supp(rho) is not inside supp(sigma); raises DisjointSupports when
    alpha < 1 and the supports are orthogonal.
    """
    order = RenyiOrder(alpha)
    _, spec_sig, case = _classified_spectra(rho, sigma, cutoff)
    if alpha > 1.0 and case != CONTAINED:
        raise SupportViolation(
            "trace functional undefined: supp(rho) not contained in supp(sigma)"
        )
    if alpha < 1.0 and case == DISJOINT:
        raise DisjointSupports("trace functional undefined: orthogonal supports")
    return float(np.sum(_sandwich_eigenvalues(rho, spec_sig, order, cutoff) ** alpha))


def srd(
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
) -> DivergenceValue:
    """Sandwiched Renyi divergence of order alpha (alpha = 1 is the
    relative-entropy limit and dispatches exactly).

    Raises ValueError when no eigenvalue of the sandwiched operator
    survives the support cutoff, which happens at extreme orders such as
    alpha = 1e-300.  The trace power is summed in the log domain, so large
    orders do not overflow.
    """
    if alpha == 1.0:
        return qre(rho, sigma, cutoff)
    order = RenyiOrder(alpha)
    _, spec_sig, case = _classified_spectra(rho, sigma, cutoff)
    if not _finite_case(alpha, case):
        return DivergenceValue(math.inf, case)
    lam = _sandwich_eigenvalues(rho, spec_sig, order, cutoff)
    if lam.size == 0:
        raise ValueError(f"trace functional underflows to 0 at alpha = {alpha}")
    # log2 tr(x^alpha) with the largest eigenvalue factored out: lam**alpha
    # itself overflows at large alpha
    top = float(lam[-1])
    log_q = alpha * math.log2(top) + math.log2(float(np.sum((lam / top) ** alpha)))
    tr_rho = float(np.trace(as_complex_matrix(rho)).real)
    value = (log_q - math.log2(tr_rho)) / (alpha - 1.0)
    return DivergenceValue(value, case)


def rre(
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
) -> DivergenceValue:
    """Relative Renyi entropy ``log tr(rho^a sigma^(1-a)) / (a-1)``."""
    if alpha == 1.0:
        return qre(rho, sigma, cutoff)
    RenyiOrder(alpha)
    spec_rho, spec_sig, case = _classified_spectra(rho, sigma, cutoff)
    if not _finite_case(alpha, case):
        return DivergenceValue(math.inf, case)
    ra = spec_rho.on_support(lambda lam: lam**alpha, cutoff)
    sb = spec_sig.on_support(lambda lam: lam ** (1.0 - alpha), cutoff)
    q = float(np.trace(ra @ sb).real)
    tr_rho = float(np.trace(as_complex_matrix(rho)).real)
    value = math.log2(q / tr_rho) / (alpha - 1.0)
    return DivergenceValue(value, case)


def _finite_case(alpha: float, case: str) -> bool:
    if case == CONTAINED:
        return True
    return alpha < 1.0 and case == OVERLAPPING


def qre(
    rho: np.ndarray, sigma: np.ndarray, cutoff: float = DEFAULT_CUTOFF
) -> DivergenceValue:
    """Relative entropy ``tr(rho (log rho - log sigma))`` in bits."""
    spec_rho, spec_sig, case = _classified_spectra(rho, sigma, cutoff)
    if case != CONTAINED:
        return DivergenceValue(math.inf, case)
    lam, _ = spec_rho.supported(cutoff)
    tr_rho = float(np.sum(lam))
    ent = float(np.sum(lam * np.log2(lam)))
    log_sigma = spec_sig.on_support(np.log2, cutoff)
    cross = float(np.trace(as_complex_matrix(rho) @ log_sigma).real)
    # normalized as for a unit-trace rho; the factor is 1 for states
    return DivergenceValue((ent - cross) / tr_rho, case)


def d_max(
    rho: np.ndarray, sigma: np.ndarray, cutoff: float = DEFAULT_CUTOFF
) -> DivergenceValue:
    """Max-relative entropy ``log lambda_max(sigma^-1/2 rho sigma^-1/2)``."""
    _, spec_sig, case = _classified_spectra(rho, sigma, cutoff)
    if case != CONTAINED:
        return DivergenceValue(math.inf, case)
    isq = spec_sig.on_support(lambda lam: lam**-0.5, cutoff)
    m = hermitian_part(isq @ rho @ isq)
    lam_max = float(np.max(hermitian_eig(m).eigenvalues))
    return DivergenceValue(math.log2(lam_max), case)


def kl(p, q) -> float:
    """Classical Kullback-Leibler divergence in bits, with 0 log 0 = 0."""
    pv = np.asarray(p, dtype=float).reshape(-1)
    qv = np.asarray(q, dtype=float).reshape(-1)
    if pv.shape != qv.shape:
        raise ValueError("distributions must have equal length")
    mask = pv > 0.0
    if np.any(qv[mask] <= 0.0):
        raise AbsoluteContinuityViolation("P puts mass where Q vanishes")
    return float(np.sum(pv[mask] * np.log2(pv[mask] / qv[mask])))


# ---------------------------------------------------------------------------
# Variational form of the trace functional
# ---------------------------------------------------------------------------


def f_alpha(
    h: np.ndarray,
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
) -> float:
    """Variational functional ``a tr(rho H) - (a-1) tr[(s^-g H s^-g)^(a/(a-1))]``.

    Its optimum over H >= 0 (sup for alpha > 1, inf for alpha in [1/2, 1))
    is the trace functional, attained at :func:`h_hat`.
    """
    order = RenyiOrder(alpha)
    s_ig = matrix_power_on_support(sigma, -order.gamma, cutoff)
    y = hermitian_part(s_ig @ as_complex_matrix(h) @ s_ig)
    lam, _ = hermitian_eig(y).supported(cutoff)
    term = float(np.sum(lam ** (alpha / (alpha - 1.0))))
    lead = float(np.trace(as_complex_matrix(rho) @ as_complex_matrix(h)).real)
    return alpha * lead - (alpha - 1.0) * term


def h_hat(
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
) -> np.ndarray:
    """Critical observable ``sigma^g (sigma^g rho sigma^g)^(a-1) sigma^g``."""
    return _critical_observable(rho, positive_spectrum(sigma, cutoff), alpha, cutoff)


def _critical_observable(
    rho: np.ndarray, sigma_spec: Spectrum, alpha: float, cutoff: float
) -> np.ndarray:
    """:func:`h_hat` on an already decomposed sigma."""
    gamma = RenyiOrder(alpha).gamma
    s_g = sigma_spec.on_support(lambda lam: lam**gamma, cutoff)
    x = hermitian_part(s_g @ rho @ s_g)
    core = matrix_power_on_support(x, alpha - 1.0, cutoff)
    return hermitian_part(s_g @ core @ s_g)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def von_neumann_entropy(rho: np.ndarray, cutoff: float = DEFAULT_CUTOFF) -> float:
    lam, _ = hermitian_eig(rho).supported(cutoff)
    return float(-np.sum(lam * np.log2(lam)))


def renyi_entropy(
    rho: np.ndarray, alpha: float, cutoff: float = DEFAULT_CUTOFF
) -> float:
    """Renyi entropy ``log tr(rho^a) / (1-a)``; handles 0, 1 and inf orders."""
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    lam, _ = hermitian_eig(rho).supported(cutoff)
    if alpha == 1.0:
        return float(-np.sum(lam * np.log2(lam)))
    if alpha == math.inf:
        return float(-np.log2(np.max(lam)))
    if alpha == 0.0:
        return float(np.log2(lam.size))
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


def conditional_entropy(state: BipartiteState, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Von Neumann conditional entropy S(AB) - S(B)."""
    return von_neumann_entropy(state.mat, cutoff) - von_neumann_entropy(
        state.marginal_b(), cutoff
    )


# ---------------------------------------------------------------------------
# Renyi conditional entropy: optimization over the B marginal
# ---------------------------------------------------------------------------


def _fixed_point_step(
    rho_ab: np.ndarray,
    dim_a: int,
    dim_b: int,
    sigma_b: np.ndarray,
    order: RenyiOrder,
    cutoff: float,
    required_rank: int,
):
    """One multiplicative update for the conditional-entropy minimization.

    Returns ``(value, next_sigma)`` where ``value`` is
    D(rho_AB || 1_A (x) sigma_B) at the current sigma and ``next_sigma`` is
    the normalized ``tr_A[((1 (x) sigma^g) rho (1 (x) sigma^g))^a]``
    (``None`` when the value is infinite).  Two eigendecompositions per call.
    """
    alpha = order.alpha
    spec = hermitian_eig(sigma_b)
    if alpha > 1.0 and int(np.sum(spec.support_mask(cutoff))) < required_rank:
        return math.inf, None
    s_g = spec.on_support(lambda lam: lam**order.gamma, cutoff)
    big = np.kron(np.eye(dim_a, dtype=np.complex128), s_g)
    x = hermitian_part(big @ rho_ab @ big)
    xa = hermitian_eig(x).on_support(lambda lam: lam**alpha, cutoff)
    q = float(np.trace(xa).real)
    if q <= 0.0:
        return math.inf, None
    value = math.log2(q) / (alpha - 1.0)
    nxt = partial_trace(xa, dim_a, dim_b, keep="B")
    nxt = hermitian_part(nxt / q)
    return value, nxt


def _herm_from_params(theta: np.ndarray, r: int) -> np.ndarray:
    m = np.zeros((r, r), dtype=np.complex128)
    m[np.diag_indices(r)] = theta[:r]
    k = r
    for i in range(r):
        for j in range(i + 1, r):
            m[i, j] = theta[k] + 1j * theta[k + 1]
            m[j, i] = theta[k] - 1j * theta[k + 1]
            k += 2
    return m


def _params_from_herm(m: np.ndarray) -> np.ndarray:
    r = m.shape[0]
    theta = np.empty(r * r)
    theta[:r] = np.diag(m).real
    k = r
    for i in range(r):
        for j in range(i + 1, r):
            theta[k] = m[i, j].real
            theta[k + 1] = m[i, j].imag
            k += 2
    return theta


def _state_from_log_params(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """exp(L)/tr exp(L) on the subspace spanned by the basis columns."""
    r = basis.shape[1]
    ell = _herm_from_params(theta, r)
    spec = hermitian_eig(ell)
    w = np.exp(spec.eigenvalues - np.max(spec.eigenvalues))
    w /= np.sum(w)
    small = spec.reconstruct(w)
    return hermitian_part(basis @ small @ basis.conj().T)


def conditional_renyi(
    state: BipartiteState,
    alpha: float,
    cutoff: float = DEFAULT_CUTOFF,
    max_iter: int = 500,
    fp_tol: float = 1e-12,
    polish: str = "auto",
):
    """Renyi conditional entropy ``-min_sigma D_a(rho_AB || 1_A (x) sigma_B)``.

    Returns ``(value, sigma_b)`` with the optimizing state.  The minimum is
    located by a damped multiplicative fixed-point iteration
    ``sigma <- tr_A[((1 (x) sigma^g) rho (1 (x) sigma^g))^a]`` (normalized),
    whose stationary point is the unique optimum of this convex problem;
    an exp-parameterized quasi-Newton polish on the support of rho_B is run
    when the iteration has not fully converged (``polish="auto"``), always
    (``"always"``), or never (``"never"``).
    """
    if alpha < 0.5:
        raise ValueError(f"alpha must be >= 1/2, got {alpha}")
    rho_b = state.marginal_b()
    if alpha == 1.0:
        return conditional_entropy(state, cutoff), rho_b
    order = RenyiOrder(alpha)
    rho_ab = state.mat
    dim_a, dim_b = state.dim_a, state.dim_b

    _, basis = positive_spectrum(rho_b, cutoff).supported(cutoff)
    r = basis.shape[1]

    def objective(sig):
        # D(rho_AB || 1_A (x) sigma_B), guarding the support requirement
        return _fixed_point_step(rho_ab, dim_a, dim_b, sig, order, cutoff, r)[0]

    def psd_state(m):
        # project onto states of full rank on supp(rho_B): extrapolated
        # candidates must not collapse the support, or the multiplicative
        # map gets trapped on a face of the simplex
        spec = hermitian_eig(hermitian_part(m))
        vals = np.clip(spec.eigenvalues, 0.0, None)
        if float(np.sum(vals)) <= 0.0:
            return None
        vals = np.clip(vals, float(np.max(vals)) * 1e-8, None)
        vals /= np.sum(vals)
        return hermitian_part(spec.reconstruct(vals))

    sigma = rho_b.copy()
    val, nxt = _fixed_point_step(rho_ab, dim_a, dim_b, sigma, order, cutoff, r)
    best_val, best_sigma = val, sigma
    damp = 1.0
    residual = math.inf
    prev_sigma = None
    prev_nxt = None
    for _ in range(max_iter):
        if nxt is None:
            break
        cur_res = max_abs(nxt - sigma)
        if cur_res < fp_tol:
            residual = cur_res
            break
        accepted = None
        if prev_sigma is not None and damp >= 1.0:
            # depth-1 Anderson step on the map residuals; only taken when it
            # both keeps the value non-increasing and halves the residual
            r1 = (nxt - sigma).ravel()
            r0 = (prev_nxt - prev_sigma).ravel()
            dr = r1 - r0
            den = float(np.vdot(dr, dr).real)
            if den > 1e-300:
                theta = float(np.vdot(dr, r1).real) / den
                acc = psd_state(nxt - theta * (nxt - prev_nxt))
                if acc is not None:
                    acc_val, acc_nxt = _fixed_point_step(
                        rho_ab, dim_a, dim_b, acc, order, cutoff, r
                    )
                    if (
                        acc_nxt is not None
                        and acc_val <= val + 1e-13
                        and max_abs(acc_nxt - acc) <= 0.5 * cur_res
                    ):
                        accepted = (acc, acc_val, acc_nxt)
        if accepted is None:
            if damp >= 1.0:
                candidate = nxt
            else:
                candidate = hermitian_part((1.0 - damp) * sigma + damp * nxt)
            cand_val, cand_nxt = _fixed_point_step(
                rho_ab, dim_a, dim_b, candidate, order, cutoff, r
            )
            if cand_val > val + 1e-13:
                damp *= 0.5
                if damp < 1e-3:
                    break
                continue
            accepted = (candidate, cand_val, cand_nxt)
        prev_sigma, prev_nxt = sigma, nxt
        sigma, val, nxt = accepted
        residual = max_abs(nxt - sigma) if nxt is not None else 0.0
        if val < best_val:
            best_val, best_sigma = val, sigma
        if residual < fp_tol:
            break

    needs_polish = polish == "always" or (polish == "auto" and residual > 1e-10)
    if polish != "never" and needs_polish and r > 0:
        small = hermitian_part(basis.conj().T @ best_sigma @ basis)
        spec = hermitian_eig(small)
        floor = max(float(np.max(spec.eigenvalues)), 1e-12) * 1e-9
        floored = np.clip(spec.eigenvalues, floor, None)
        theta0 = _params_from_herm(hermitian_part(spec.reconstruct(np.log(floored))))

        def fun(theta):
            sig = _state_from_log_params(theta, basis)
            v = objective(sig)
            return v if math.isfinite(v) else 1e6

        res = minimize(
            fun,
            theta0,
            method="L-BFGS-B",
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-7},
        )
        cand_sigma = _state_from_log_params(res.x, basis)
        cand_val = objective(cand_sigma)
        if cand_val < best_val:
            best_val = cand_val
            best_sigma = cand_sigma
        residual = 0.0 if res.success else residual

    if not math.isfinite(best_val):
        raise OptimizerNonConvergence(
            "no finite divergence value found", best_value=best_val
        )
    return -best_val, best_sigma


def duality_gap(
    state: BipartiteState, alpha: float, cutoff: float = DEFAULT_CUTOFF
) -> float:
    """|S_a(A|B) + S_b(A|C)| over a purification, with 1/a + 1/b = 2."""
    order = RenyiOrder(alpha) if alpha != 1.0 else None
    if alpha <= 0.5:
        raise ValueError("duality pair requires alpha > 1/2")
    beta = order.dual_beta if order is not None else 1.0
    value_b, _ = conditional_renyi(state, alpha, cutoff)
    dim_a, dim_b = state.dim_a, state.dim_b
    psi, dim_c = purify(state.mat, cutoff)
    # reorder A (x) B (x) C  ->  A (x) C (x) B, then trace out B
    psi_acb = psi.reshape(dim_a, dim_b, dim_c).transpose(0, 2, 1).reshape(-1)
    rho_acb = projector(psi_acb)
    rho_ac = partial_trace(rho_acb, dim_a * dim_c, dim_b, keep="A")
    value_c, _ = conditional_renyi(BipartiteState(rho_ac, dim_a, dim_c), beta, cutoff)
    return abs(value_b + value_c)
