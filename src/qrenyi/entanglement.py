"""Entropic applications: Renyi Araki-Lieb bounds and their saturation,
(Renyi) entanglement of formation, and entanglement fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply
from .divergences import (
    RenyiOrder,
    _spectrum_entropy,
    conditional_entropy,
    conditional_renyi,
    renyi_entropy,
)
from .errors import DimensionMismatch, DimensionTooSmall, OptimizerNonConvergence
from .linalg import (
    as_complex_matrix,
    check_hermitian,
    fidelity,
    hermitian_eig,
    hermitian_part,
    max_abs,
    minimize,
    support_threshold,
)
from .states import BipartiteState, rank_profile, substream

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
    rho_a = state.marginal_a()
    value, _ = conditional_renyi(state, alpha)
    upper = renyi_entropy(rho_a, alpha)
    lower = -renyi_entropy(rho_a, beta)
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
    return BipartiteState(hermitian_part(rho), dim_a, dim_b)


def check_saturation_conditions(state: BipartiteState) -> SaturationCheck:
    """Test the rank identity and the cross-term spectral condition.

    The cross-term condition asks for an orthonormal basis ``|i>`` of the
    support with ``tr_B |i><j| = delta_ij rho_A``.  With V holding the
    basis, the condition says that ``Y -> tr_B(V Y V^dag) - tr(Y) rho_A``
    vanishes; replacing V by ``V U`` conjugates Y by U, so the condition
    holds for one such basis exactly when it holds for all of them, and
    the eigenbasis decides it.
    """
    profile = rank_profile(state)
    rank_ok = profile.r_b == profile.r_a * profile.r_ab
    _, vecs = hermitian_eig(state.mat).supported()
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
    """``max(-S(A|B), -S(B|A), 0)`` on the von Neumann side."""
    s_ab = conditional_entropy(state)
    s_ba = conditional_entropy(state.swapped())
    return max(-s_ab, -s_ba, 0.0)


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
    """
    lam, vecs = hermitian_eig(state.mat).supported()
    lam, vecs = lam[::-1], vecs[:, ::-1]
    r = lam.size
    m = ensemble_size if ensemble_size is not None else min(r * r, 16)
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank {r}")
    scaled = vecs * np.sqrt(lam)

    def orth(z: np.ndarray) -> np.ndarray:
        u, _, vh = np.linalg.svd(z, full_matrices=False)
        return u @ vh

    def objective_from_t(t: np.ndarray) -> float:
        weights, psi = _ensemble_from_isometry(scaled, t, 1e-14)
        members = psi.T.reshape(-1, state.dim_a, state.dim_b)
        # the reduced spectrum of a pure state is its squared Schmidt
        # coefficients; svd returns them descending, the entropy wants ascending
        spectra = np.linalg.svd(members, compute_uv=False)[:, ::-1] ** 2
        keep = spectra > support_threshold(spectra)[:, None]
        return sum(
            w * _spectrum_entropy(s[k], alpha) for w, s, k in zip(weights, spectra, keep)
        )

    def unpack(x: np.ndarray) -> np.ndarray:
        half = m * r
        return (x[:half] + 1j * x[half:]).reshape(m, r)

    best_val = math.inf
    best_t = None
    for k in range(restarts + 1):
        if k == 0:
            z0 = np.zeros((m, r), dtype=np.complex128)
            z0[:r, :r] = np.eye(r)
        else:
            rng = substream(seed, k)
            z0 = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
        x0 = np.concatenate([z0.real.ravel(), z0.imag.ravel()])

        def fun(x):
            return objective_from_t(orth(unpack(x)))

        # gtol sits just above the finite-difference noise floor of the
        # objective; anything tighter spins until maxiter
        res = minimize(
            fun,
            x0,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-12, "gtol": 1e-7},
        )
        val = float(res.fun)
        if val < best_val:
            best_val = val
            best_t = orth(unpack(res.x))

    if best_t is None or not math.isfinite(best_val):
        raise OptimizerNonConvergence(
            "ensemble optimization produced no finite value", best_value=best_val
        )
    weights, states = _ensemble_from_isometry(scaled, best_t, 1e-12)
    return best_val, PureStateEnsemble(weights, tuple(states.T))


# ---------------------------------------------------------------------------
# Entanglement fidelity
# ---------------------------------------------------------------------------


def entanglement_fidelity(rho: np.ndarray, channel: QuantumChannel) -> float:
    """Overlap of a purification with its image under ``N (x) id``.

    Computed as ``sum_k |tr(rho K_k)|^2``, which equals that overlap for
    every purification of rho.
    """
    rho_m = check_hermitian(rho)
    d = rho_m.shape[0]
    if channel.dim_in != d or channel.dim_out != d:
        raise DimensionMismatch("channel must act on the state's space")
    val = sum(abs(np.trace(rho_m @ k)) ** 2 for k in channel.kraus)
    return min(float(val), 1.0)


def fe_equality_check(rho: np.ndarray, channel: QuantumChannel) -> FeEqualityReport:
    """Compare the entanglement fidelity against the fidelity-squared bound.

    The bound is tight exactly on pure states; mixed inputs give a
    strictly positive gap.
    """
    rho_m = as_complex_matrix(rho)
    f_sq = fidelity(rho_m, apply(channel, rho_m)) ** 2
    f_e = entanglement_fidelity(rho_m, channel)
    rank = hermitian_eig(rho_m).supported()[0].size
    return FeEqualityReport(f_sq - f_e, rank == 1, f_e, f_sq)
