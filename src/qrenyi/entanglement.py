"""Entropic applications: Renyi Araki-Lieb bounds and their saturation,
(Renyi) entanglement of formation, and entanglement fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply
from .divergences import (
    RenyiOrder,
    _check_entropy_order,
    _entropy,
    _spectrum_entropy,
    _spectrum_entropy_slope,
    conditional_renyi,
)
from .errors import DimensionMismatch, DimensionTooSmall, OptimizerNonConvergence
from .linalg import (
    _bare_eig,
    _checked_positive,
    _root_fidelity,
    max_abs,
    minimize,
    support_threshold,
)
from .states import BipartiteState, check_positive, rank_profile, substream

#: Cross-term threshold of :func:`check_saturation_conditions`.
_SATURATION_CROSS_TOL = 1e-8


@dataclass(frozen=True)
class PureStateEnsemble:
    """Probability weights and pure states realizing a mixed state."""

    weights: np.ndarray
    states: tuple

    def reconstruct(self) -> np.ndarray:
        s = np.stack(self.states, axis=1)
        return (s * self.weights) @ s.conj().T


@dataclass(frozen=True)
class ArakiLiebReport:
    """Sandwich ``-S_beta(A) <= S_alpha(A|B) <= S_alpha(A)`` at dual orders."""

    lower: float
    value: float
    upper: float
    saturation_residual: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class SaturatingSpec:
    """Recipe for a state saturating the lower conditional-entropy bound."""

    r_a: int
    r_ab: int
    lam: np.ndarray
    rho_a_spectrum: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.rho_a_spectrum, dtype=float)
        if lam.size != self.r_ab or mu.size != self.r_a:
            raise ValueError("spectra lengths must match the requested ranks")
        for v in (lam, mu):
            if np.any(v <= 0) or abs(float(np.sum(v)) - 1.0) > 1e-10:
                raise ValueError("spectra must be strictly positive and sum to 1")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rho_a_spectrum", mu)


@dataclass(frozen=True)
class SaturationCheck:
    holds: bool
    rank_ok: bool
    cross_terms_ok: bool
    residual: float


@dataclass(frozen=True)
class FeEqualityReport:
    """Gap of the fidelity-squared bound on the entanglement fidelity."""

    bound_gap: float
    is_pure: bool
    entanglement_fidelity: float
    fidelity_squared: float


def araki_lieb_renyi(state: BipartiteState, alpha: float) -> ArakiLiebReport:
    """Evaluate the conditional-entropy sandwich at order alpha.

    The lower bound uses the dual order beta with 1/alpha + 1/beta = 2;
    ``saturation_residual`` measures the distance to the lower bound.
    """
    if alpha < 0.5:
        raise ValueError("alpha must be >= 1/2")
    beta = 1.0 if alpha == 1.0 else RenyiOrder(alpha).dual_beta
    spec_a = _bare_eig(state.marginal_a())
    lam_a, keep = spec_a.eigenvalues, spec_a.support_mask()
    value, _ = conditional_renyi(state, alpha)
    upper = float(_spectrum_entropy(lam_a, alpha, keep))
    lower = -float(_spectrum_entropy(lam_a, beta, keep))
    return ArakiLiebReport(lower, value, upper, value - lower, alpha, beta)


def saturating_state(spec: SaturatingSpec, dim_b: int | None = None) -> BipartiteState:
    """Construct a state achieving ``S_alpha(A|B) = -S_beta(A)``.

    Eigenvectors are ``|i> = sum_k sqrt(mu_k) |k>_A |k + i r_A>_B`` so that
    ``tr_B |i><j| = delta_ij rho_A`` holds by the orthogonality of the B
    labels, and the B marginal has rank ``r_A * r_AB``.
    """
    r_a, r_ab = spec.r_a, spec.r_ab
    needed = r_a * r_ab
    if dim_b is None:
        dim_b = needed
    if dim_b < needed:
        raise DimensionTooSmall(f"dim_b={dim_b} below required {needed}")
    dim_a = r_a
    d = dim_a * dim_b
    rho = np.zeros((d, d), dtype=np.complex128)
    sqrt_mu = np.sqrt(spec.rho_a_spectrum)
    for i in range(r_ab):
        vec = np.zeros(d, dtype=np.complex128)
        for k in range(r_a):
            vec[k * dim_b + (k + i * r_a)] = sqrt_mu[k]
        rho += spec.lam[i] * np.outer(vec, vec.conj())
    return BipartiteState(rho, dim_a, dim_b)


def check_saturation_conditions(state: BipartiteState) -> SaturationCheck:
    """Test the rank identity and the cross-term spectral condition.

    The cross-term condition asks for an orthonormal basis ``|i>`` of the
    support with ``tr_B |i><j| = delta_ij rho_A``.  With V holding the
    basis, the condition says that ``Y -> tr_B(V Y V^dag) - tr(Y) rho_A``
    vanishes; replacing V by ``V U`` conjugates Y by U, so the condition
    holds for one such basis exactly when it holds for all of them, and
    the eigenbasis decides it.
    """
    ranks = rank_profile(state)
    rank_ok = ranks.r_b == ranks.r_a * ranks.r_ab
    _, vecs = state.spectrum.supported()
    t = vecs.reshape(state.dim_a, state.dim_b, -1)
    cross = np.einsum("abi,cbj->ijac", t, t.conj())
    cross -= np.einsum("ij,ac->ijac", np.eye(t.shape[2]), state.marginal_a())
    residual = max_abs(cross)
    cross_ok = residual <= _SATURATION_CROSS_TOL
    return SaturationCheck(rank_ok and cross_ok, rank_ok, cross_ok, residual)


# ---------------------------------------------------------------------------
# Entanglement of formation
# ---------------------------------------------------------------------------


def eof_lower_bound(state: BipartiteState) -> float:
    """``max(-S(A|B), -S(B|A), 0)`` on the von Neumann side, as
    ``max(S(A), S(B)) - S(AB)`` floored at 0, from the state's three spectra."""
    s_a = _entropy(_bare_eig(state.marginal_a()), 1.0)
    s_b = _entropy(_bare_eig(state.marginal_b()), 1.0)
    return max(max(s_a, s_b) - _entropy(state.spectrum, 1.0), 0.0)


def reof_lower_bound(state: BipartiteState, alpha: float) -> float:
    """``max(-S_b(A|B), -S_b(B|A), 0)`` with b = a/(2a-1), for a > 1."""
    if alpha <= 1.0:
        raise ValueError("bound stated for alpha > 1")
    beta = RenyiOrder(alpha).dual_beta
    v_ab, _ = conditional_renyi(state, beta)
    v_ba, _ = conditional_renyi(state.swapped(), beta)
    return max(-v_ab, -v_ba, 0.0)


def _ensemble_from_isometry(scaled: np.ndarray, t: np.ndarray, floor: float):
    """Weights above ``floor`` and their normalized states (as columns) from
    an m x r mixing isometry."""
    tilde = scaled @ t.T  # column i: sum_j T_ij sqrt(l_j) |e_j>
    weights = np.sum(np.abs(tilde) ** 2, axis=0).real
    live = weights > floor
    return weights[live], tilde[:, live] / np.sqrt(weights[live])


def check_reof_options(alpha: float, ensemble_size: int | None, restarts: int) -> None:
    """Reject what :func:`reof_minimize` cannot take, with ValueError: an
    order below 0 or NaN, fewer than 1 ensemble member, or fewer than 0
    restarts.  The CLI checks its options here at every order."""
    _check_entropy_order(alpha)
    if ensemble_size is not None and ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")


def reof_minimize(
    state: BipartiteState,
    alpha: float,
    ensemble_size: int | None = None,
    restarts: int = 4,
    seed: int = 0,
):
    """Minimize the ensemble-averaged Renyi entanglement entropy.

    Ensembles of size m are parameterized by isometric mixings of the
    eigen-ensemble (every ensemble realizing the state arises this way);
    the isometry is optimized through an unconstrained matrix that is
    re-orthonormalized on each evaluation via its polar factor.  Returns
    an upper bound on the true minimum together with the realizing
    ensemble.

    L-BFGS-B gets the exact gradient with each value, from the two SVDs an
    evaluation does: the entropy's slope in each member's Schmidt
    coefficients goes back through the members' SVD, then the mixing, then
    the polar factor's adjoint.
    """
    check_reof_options(alpha, ensemble_size, restarts)
    # phased, so the ensemble handed out is deterministic
    lam, vecs = state.spectrum.phased().supported()
    lam, vecs = lam[::-1], vecs[:, ::-1]
    r = lam.size
    m = ensemble_size if ensemble_size is not None else min(r * r, 16)
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank {r}")
    scaled = vecs * np.sqrt(lam)
    half = m * r

    def polar(x: np.ndarray):
        """Thin SVD ``(U, S, V^dag)`` of Z and its polar factor ``U V^dag``."""
        z = (x[:half] + 1j * x[half:]).reshape(m, r)
        u, s, vh = np.linalg.svd(z, full_matrices=False)
        return u, s, vh, u @ vh

    def value_and_gradient(x: np.ndarray):
        u, s, vh, t = polar(x)
        # member i is column i of scaled T^T, unnormalized: weight w_i = sum q
        tilde = scaled @ t.T
        nu, sv, nvh = np.linalg.svd(
            tilde.T.reshape(m, state.dim_a, state.dim_b), full_matrices=False
        )
        # the reduced spectrum of a pure state is its squared Schmidt
        # coefficients; svd returns them descending, the entropy wants ascending
        q = sv[:, ::-1] ** 2
        w = np.sum(q, axis=1)
        live = w > 1e-14
        p = q[live] / w[live, None]
        h, slope = _spectrum_entropy_slope(p, alpha, p > support_threshold(p)[:, None])
        # dF/ds = 2 s dF/dq for each singular value s, in svd's descending order
        g_sv = np.zeros_like(sv)
        g_sv[live] = 2.0 * sv[live] * slope[:, ::-1]
        g_t = ((nu * g_sv[:, None, :]) @ nvh).reshape(m, -1) @ scaled.conj()
        # adjoint of the polar factor of Z = U S V^dag
        ug = u.conj().T @ g_t
        a = ug @ vh.conj().T
        b = (a - a.conj().T) / (s[:, None] + s[None, :])
        g_z = u @ b @ vh + (g_t - u @ ug) @ (vh.conj().T / s) @ vh
        grad = np.concatenate([g_z.real.ravel(), g_z.imag.ravel()])
        return float(np.sum(w[live] * h)), grad

    best_val = math.inf
    best_x = None
    for k in range(restarts + 1):
        if k == 0:
            z0 = np.zeros((m, r), dtype=np.complex128)
            z0[:r, :r] = np.eye(r)
        else:
            rng = substream(seed, k)
            z0 = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
        x0 = np.concatenate([z0.real.ravel(), z0.imag.ravel()])
        # stop once no gradient entry exceeds 1e-7, or once a step lowers
        # the value by less than 1e-12 relative
        res = minimize(
            value_and_gradient,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-12, "gtol": 1e-7},
        )
        val = float(res.fun)
        if val < best_val:
            best_val = val
            best_x = res.x

    if best_x is None or not math.isfinite(best_val):
        raise OptimizerNonConvergence(
            "ensemble optimization produced no finite value", best_value=best_val
        )
    weights, states = _ensemble_from_isometry(scaled, polar(best_x)[3], 1e-12)
    return best_val, PureStateEnsemble(weights, tuple(states.T))


# ---------------------------------------------------------------------------
# Entanglement fidelity
# ---------------------------------------------------------------------------


def entanglement_fidelity(rho: np.ndarray, channel: QuantumChannel) -> float:
    """Overlap of a purification with its image under ``N (x) id``.

    Computed as ``sum_k |tr(rho K_k)|^2``, which equals that overlap for
    every purification of rho.  Raises NegativeEigenvalue when rho is not
    positive semidefinite.
    """
    return _entanglement_fidelity(check_positive(rho), channel)


def _entanglement_fidelity(rho_m: np.ndarray, channel: QuantumChannel) -> float:
    """:func:`entanglement_fidelity` of an already checked rho."""
    d = rho_m.shape[0]
    if channel.dim_in != d or channel.dim_out != d:
        raise DimensionMismatch("channel must act on the state's space")
    traces = np.trace(rho_m @ channel.kraus, axis1=-2, axis2=-1)
    return min(float(np.sum(np.abs(traces) ** 2)), 1.0)


def fe_equality_check(rho: np.ndarray, channel: QuantumChannel) -> FeEqualityReport:
    """Compare the entanglement fidelity against the fidelity-squared bound.

    The bound is tight exactly on pure states; mixed inputs give a
    strictly positive gap.  rho is checked and decomposed once: its
    spectrum gives the rank and the square root; N(rho) is decomposed bare.
    """
    rho_m, spec = _checked_positive(rho)
    f_e = _entanglement_fidelity(rho_m, channel)
    sqrt_out = _bare_eig(apply(channel, rho_m)).on_support(lambda lam: lam**0.5)
    f_sq = _root_fidelity(spec.on_support(lambda lam: lam**0.5), sqrt_out) ** 2
    rank = int(np.sum(spec.support_mask()))
    return FeEqualityReport(f_sq - f_e, rank == 1, f_e, f_sq)
