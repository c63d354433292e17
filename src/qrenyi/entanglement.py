"""Entropic applications: Renyi Araki-Lieb bounds and their saturation,
(Renyi) entanglement of formation, and entanglement fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import QuantumChannel, apply
from .divergences import (
    RenyiOrder,
    conditional_entropy,
    conditional_renyi,
    renyi_entropy,
)
from .errors import DimensionMismatch, DimensionTooSmall, OptimizerNonConvergence
from .linalg import (
    DEFAULT_CUTOFF,
    as_complex_matrix,
    fidelity,
    hermitian_eig,
    hermitian_part,
    max_abs,
    partial_trace,
)
from .states import BipartiteState, projector, purify, rank_profile, substream


@dataclass(frozen=True)
class PureStateEnsemble:
    """Probability weights and pure states realizing a mixed state."""

    weights: np.ndarray
    states: tuple

    def reconstruct(self) -> np.ndarray:
        acc = np.zeros(
            (self.states[0].size, self.states[0].size), dtype=np.complex128
        )
        for w, psi in zip(self.weights, self.states):
            acc += w * projector(psi)
        return acc


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


def araki_lieb_renyi(
    state: BipartiteState, alpha: float, cutoff: float = DEFAULT_CUTOFF
) -> ArakiLiebReport:
    """Evaluate the conditional-entropy sandwich at order alpha.

    The lower bound uses the dual order beta with 1/alpha + 1/beta = 2;
    ``saturation_residual`` measures the distance to the lower bound.
    """
    if alpha < 0.5:
        raise ValueError("alpha must be >= 1/2")
    beta = 1.0 if alpha == 1.0 else RenyiOrder(alpha).dual_beta
    rho_a = state.marginal_a()
    value, _ = conditional_renyi(state, alpha, cutoff)
    upper = renyi_entropy(rho_a, alpha, cutoff)
    lower = -renyi_entropy(rho_a, beta, cutoff)
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


def check_saturation_conditions(
    state: BipartiteState,
    cross_tol: float = 1e-8,
    rotations: int = 100,
    seed: int = 0,
    cutoff: float = DEFAULT_CUTOFF,
) -> SaturationCheck:
    """Test the rank identity and the cross-term spectral condition.

    The cross-term condition asks for an eigenbasis with
    ``tr_B |i><j| = delta_ij rho_A``.  Within a degenerate eigenspace the
    eigenbasis is not unique, so the residual is minimized over seeded
    random intra-eigenspace rotations (the identity is always tried).
    """
    profile = rank_profile(state, cutoff)
    rank_ok = profile.r_b == profile.r_a * profile.r_ab
    rho_a = state.marginal_a()
    spec = hermitian_eig(state.mat)
    lam_max = float(np.max(spec.eigenvalues))
    lam, vecs = spec.supported(cutoff)
    r = lam.size

    # group (nearly) equal eigenvalues; rotations act inside groups only
    groups = []
    start = 0
    for i in range(1, r + 1):
        if i == r or abs(lam[i] - lam[i - 1]) > 1e-8 * max(1.0, lam_max):
            groups.append((start, i))
            start = i
    degenerate = any(b - a > 1 for a, b in groups)

    def residual_for(v):
        worst = 0.0
        for i in range(r):
            for j in range(i, r):
                m = partial_trace(
                    np.outer(v[:, i], v[:, j].conj()),
                    state.dim_a,
                    state.dim_b,
                    keep="A",
                )
                target = rho_a if i == j else 0.0
                worst = max(worst, max_abs(m - target))
        return worst

    best = residual_for(vecs)
    if degenerate:
        for trial in range(rotations):
            rng = substream(seed, trial)
            rotated = vecs.copy()
            for a, b in groups:
                if b - a == 1:
                    continue
                g = rng.normal(size=(b - a, b - a)) + 1j * rng.normal(
                    size=(b - a, b - a)
                )
                q, rr = np.linalg.qr(g)
                q = q * (np.diag(rr) / np.abs(np.diag(rr)))
                rotated[:, a:b] = vecs[:, a:b] @ q
            best = min(best, residual_for(rotated))
            if best <= cross_tol:
                break
    cross_ok = best <= cross_tol
    return SaturationCheck(rank_ok and cross_ok, rank_ok, cross_ok, best)


# ---------------------------------------------------------------------------
# Entanglement of formation
# ---------------------------------------------------------------------------


def eof_lower_bound(state: BipartiteState, cutoff: float = DEFAULT_CUTOFF) -> float:
    """``max(-S(A|B), -S(B|A), 0)`` on the von Neumann side."""
    s_ab = conditional_entropy(state, cutoff)
    s_ba = conditional_entropy(state.swapped(), cutoff)
    return max(-s_ab, -s_ba, 0.0)


def reof_lower_bound(
    state: BipartiteState, alpha: float, cutoff: float = DEFAULT_CUTOFF
) -> float:
    """``max(-S_b(A|B), -S_b(B|A), 0)`` with b = a/(2a-1), for a > 1."""
    if alpha <= 1.0:
        raise ValueError("bound stated for alpha > 1")
    beta = RenyiOrder(alpha).dual_beta
    v_ab, _ = conditional_renyi(state, beta, cutoff)
    v_ba, _ = conditional_renyi(state.swapped(), beta, cutoff)
    return max(-v_ab, -v_ba, 0.0)


def _ensemble_from_isometry(scaled: np.ndarray, t: np.ndarray):
    """Weights and normalized states from an m x r mixing isometry."""
    tilde = scaled @ t.T  # column i: sum_j T_ij sqrt(l_j) |e_j>
    weights = np.sum(np.abs(tilde) ** 2, axis=0).real
    return tilde, weights


def reof_minimize(
    state: BipartiteState,
    alpha: float,
    ensemble_size: int | None = None,
    restarts: int = 4,
    seed: int = 0,
    cutoff: float = DEFAULT_CUTOFF,
    maxiter: int = 400,
):
    """Minimize the ensemble-averaged Renyi entanglement entropy.

    Ensembles of size m are parameterized by isometric mixings of the
    eigen-ensemble (every ensemble realizing the state arises this way);
    the isometry is optimized through an unconstrained matrix that is
    re-orthonormalized on each evaluation via its polar factor.  Returns
    an upper bound on the true minimum together with the realizing
    ensemble.
    """
    lam, vecs = hermitian_eig(state.mat).supported(cutoff)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    r = lam.size
    m = ensemble_size if ensemble_size is not None else min(r * r, 16)
    if m < r:
        raise ValueError(f"ensemble_size must be >= rank {r}")
    scaled = vecs * np.sqrt(lam)

    def orth(z: np.ndarray) -> np.ndarray:
        gram = hermitian_part(z.conj().T @ z)
        gspec = hermitian_eig(gram)
        clipped = np.clip(gspec.eigenvalues, 1e-14, None)
        return z @ gspec.reconstruct(1.0 / np.sqrt(clipped))

    def objective_from_t(t: np.ndarray) -> float:
        tilde, weights = _ensemble_from_isometry(scaled, t)
        total = 0.0
        for i in range(m):
            w = weights[i]
            if w < 1e-14:
                continue
            psi = tilde[:, i] / np.sqrt(w)
            red = partial_trace(projector(psi), state.dim_a, state.dim_b, "A")
            total += w * renyi_entropy(red, alpha, cutoff)
        return total

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
            options={"maxiter": maxiter, "ftol": 1e-12, "gtol": 1e-7},
        )
        val = float(res.fun)
        if val < best_val:
            best_val = val
            best_t = orth(unpack(res.x))

    if best_t is None or not math.isfinite(best_val):
        raise OptimizerNonConvergence(
            "ensemble optimization produced no finite value", best_value=best_val
        )
    tilde, weights = _ensemble_from_isometry(scaled, best_t)
    keep_w = weights > 1e-12
    states = tuple(
        tilde[:, i] / np.sqrt(weights[i]) for i in range(m) if keep_w[i]
    )
    ensemble = PureStateEnsemble(weights[keep_w], states)
    return best_val, ensemble


# ---------------------------------------------------------------------------
# Entanglement fidelity
# ---------------------------------------------------------------------------


def entanglement_fidelity(
    rho: np.ndarray,
    channel: QuantumChannel,
    purification: np.ndarray | None = None,
    cutoff: float = DEFAULT_CUTOFF,
) -> float:
    """Overlap of a purification with its image under ``N (x) id``.

    Uses the canonical eigen-purification unless an explicit one is given
    (the value is independent of that choice).
    """
    rho_m = as_complex_matrix(rho)
    d = rho_m.shape[0]
    if channel.dim_in != d or channel.dim_out != d:
        raise DimensionMismatch("channel must act on the state's space")
    if purification is None:
        psi, r = purify(rho_m, cutoff)
    else:
        psi = np.asarray(purification, dtype=np.complex128).reshape(-1)
        if psi.size % d != 0:
            raise DimensionMismatch("purification length incompatible with state")
        r = psi.size // d
    eye_r = np.eye(r, dtype=np.complex128)
    out = np.zeros((d * r, d * r), dtype=np.complex128)
    big = projector(psi)
    for k in channel.kraus:
        kk = np.kron(k, eye_r)
        out += kk @ big @ kk.conj().T
    val = float(np.real(np.vdot(psi, out @ psi)))
    return min(max(val, 0.0), 1.0)


def fe_equality_check(
    rho: np.ndarray, channel: QuantumChannel, cutoff: float = DEFAULT_CUTOFF
) -> FeEqualityReport:
    """Compare the entanglement fidelity against the fidelity-squared bound.

    The bound is tight exactly on pure states; mixed inputs give a
    strictly positive gap.
    """
    rho_m = as_complex_matrix(rho)
    f_sq = fidelity(rho_m, apply(channel, rho_m)) ** 2
    f_e = entanglement_fidelity(rho_m, channel, cutoff=cutoff)
    rank = hermitian_eig(rho_m).supported(cutoff)[0].size
    return FeEqualityReport(f_sq - f_e, rank == 1, f_e, f_sq)
