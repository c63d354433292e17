"""Seeded property suites: one runner per acceptance-grade check.

Every suite derives per-trial randomness from ``substream(seed, ...)``, so
reports are reproducible for a given (suite, seed, flags) triple regardless
of execution order.  Runners return a :class:`SuiteReport`; a suite passes
when its failure list is empty.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import (
    measurement_channel,
    partial_trace_channel,
    random_channel,
    unitary_channel,
)
from .divergences import (
    conditional_renyi,
    duality_gap,
    f_alpha,
    h_hat,
    q_tilde,
    qre,
    renyi_entropy,
    rre,
    srd,
)
from .dpi import (
    CROSS_TOL,
    EQ_TOL,
    dpi_check,
    dpi_violation_search,
    equality_residual,
    equality_residual_stinespring,
    fidelity_attaining_povm,
    sufficiency_test,
)
from .entanglement import (
    SaturatingSpec,
    araki_lieb_renyi,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
    saturating_state,
)
from .errors import UnknownSuite
from .linalg import fidelity, max_abs, tensor
from .states import (
    BipartiteState,
    projector,
    random_density,
    random_pure,
    random_unitary,
    substream,
)

ALPHA_GRID = (0.5, 0.75, 1.5, 2.0, 3.0)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    failures: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    tool_version: str = __version__

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failures,
            "summary": self.summary,
            "wall_time_s": self.wall_time_s,
            "tool_version": self.tool_version,
        }


def _finish(report: SuiteReport, t0: float) -> SuiteReport:
    report.wall_time_s = time.perf_counter() - t0
    return report


#: Tolerance keys of each suite and their defaults; ``--tolerance`` may set
#: only these.
TOLERANCES = {
    "dpi-holds": {"gap": 1e-9},
    "equality-certificate": {
        "eq_tol": EQ_TOL,
        "gap_tol": CROSS_TOL,
        "generic_gap": 1e-3,
        "generic_residual": 1e-4,
    },
    "stinespring-agreement": {"agreement": 1e-9},
    "variational-form": {"tol": 1e-9},
    "petz-sufficiency": {"gap": 1e-8},
    "fidelity-measurement": {"gap": 1e-6},
    "duality": {"gap": 2e-6},
    "araki-lieb": {"slack": 2e-6, "saturation": 1e-5},
    "reof": {"saturating": 1e-4, "maximally_entangled": 1e-6, "product": 1e-8},
    "entanglement-fidelity-purity": {"pure": 1e-10, "mixed": 1e-4},
    "dpi-violation-below-half": {"violation": 1e-4, "control": 1e-9},
    "classical-reduction": {"commuting": 1e-10, "continuity": 1e-3},
}


def _tolerances(suite: str, given) -> dict:
    """The suite's default tolerances with the caller's values merged in."""
    unknown = sorted(set(given or ()) - set(TOLERANCES[suite]))
    if unknown:
        raise ValueError(
            f"suite {suite!r} has no tolerance {', '.join(unknown)}; "
            f"known: {', '.join(TOLERANCES[suite])}"
        )
    return {**TOLERANCES[suite], **{k: float(v) for k, v in (given or {}).items()}}


def _random_triple(rng, dmax: int):
    """Random (rho, sigma, channel) with sigma full rank (clean supports)."""
    d = int(rng.integers(2, dmax + 1))
    rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    sigma = random_density(d, d, rng)
    d_out = int(rng.integers(2, dmax + 1))
    kraus_count = int(rng.integers(1, 4))
    while kraus_count * d_out < d:
        kraus_count += 1
    lam = random_channel(d, d_out, kraus_count, rng)
    return rho, sigma, lam


def run_dpi_holds(
    seed: int = 1, trials: int = 500, dims: int = 6, tolerances=None
) -> SuiteReport:
    """Gap non-negativity across the alpha grid on random triples."""
    t0 = time.perf_counter()
    gap_floor = -_tolerances("dpi-holds", tolerances)["gap"]
    report = SuiteReport("dpi-holds", seed, trials)
    min_gap = math.inf
    for ai, alpha in enumerate(ALPHA_GRID):
        for t in range(trials):
            rng = substream(seed, ai, t)
            rho, sigma, lam = _random_triple(rng, dims)
            rep = dpi_check(rho, sigma, lam, alpha)
            if not math.isnan(rep.gap):
                min_gap = min(min_gap, rep.gap)
            if math.isnan(rep.gap) or rep.gap < gap_floor:
                report.failures.append(
                    {"alpha": alpha, "trial": t, "gap": rep.gap}
                )
    report.summary = {"min_gap": min_gap, "alphas": list(ALPHA_GRID)}
    return _finish(report, t0)


def _constructed_equality_instance(rng, kind: str):
    """An instance with exact equality: unitary conjugation or a partial
    trace of states sharing a common tensor factor."""
    if kind == "unitary":
        d = int(rng.integers(2, 5))
        rho = random_density(d, d, rng)
        sigma = random_density(d, d, rng)
        lam = unitary_channel(random_unitary(d, rng))
    else:
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        tau = random_density(db, db, rng)
        rho = tensor(random_density(da, da, rng), tau)
        sigma = tensor(random_density(da, da, rng), tau)
        lam = partial_trace_channel(da, db, keep="A")
    return rho, sigma, lam


def run_equality_certificate(
    seed: int = 2, trials: int = 200, dims: int = 4, tolerances=None
) -> SuiteReport:
    """Soundness and completeness of the operator equality certificate."""
    t0 = time.perf_counter()
    tol = _tolerances("equality-certificate", tolerances)
    report = SuiteReport("equality-certificate", seed, trials)
    max_eq_residual = 0.0
    min_neq_residual = math.inf
    for t in range(trials):
        rng = substream(seed, 0, t)
        alpha = ALPHA_GRID[t % len(ALPHA_GRID)]
        kind = "unitary" if t % 2 == 0 else "product-trace"
        rho, sigma, lam = _constructed_equality_instance(rng, kind)
        cert = equality_residual(rho, sigma, lam, alpha, tol["eq_tol"])
        rep = dpi_check(rho, sigma, lam, alpha)
        max_eq_residual = max(max_eq_residual, cert.residual)
        if cert.verdict != "equal" or abs(rep.gap) > tol["gap_tol"]:
            report.failures.append(
                {
                    "case": "constructed",
                    "trial": t,
                    "alpha": alpha,
                    "residual": cert.residual,
                    "gap": rep.gap,
                }
            )
    for t in range(trials):
        alpha = ALPHA_GRID[t % len(ALPHA_GRID)]
        gap, cert = -math.inf, None
        for attempt in range(40):
            rng = substream(seed, 1, t, attempt)
            rho, sigma, lam = _random_triple(rng, dims)
            rep = dpi_check(rho, sigma, lam, alpha)
            if rep.gap > tol["generic_gap"]:
                gap = rep.gap
                cert = equality_residual(rho, sigma, lam, alpha, tol["eq_tol"])
                break
        if cert is None:
            report.failures.append({"case": "generic-sampling", "trial": t})
            continue
        min_neq_residual = min(min_neq_residual, cert.residual)
        if cert.residual <= tol["generic_residual"] or cert.verdict == "equal":
            report.failures.append(
                {
                    "case": "generic",
                    "trial": t,
                    "alpha": alpha,
                    "residual": cert.residual,
                    "gap": gap,
                }
            )
    report.summary = {
        "max_equality_residual": max_eq_residual,
        "min_generic_residual": min_neq_residual,
    }
    return _finish(report, t0)


def run_stinespring_agreement(
    seed: int = 3, trials: int = 100, dims: int = 3, tolerances=None
) -> SuiteReport:
    """Kraus-adjoint and dilation routes produce the same certificate."""
    t0 = time.perf_counter()
    tol = _tolerances("stinespring-agreement", tolerances)["agreement"]
    report = SuiteReport("stinespring-agreement", seed, trials)
    worst = 0.0
    for t in range(trials):
        rng = substream(seed, t)
        alpha = ALPHA_GRID[t % len(ALPHA_GRID)]
        rho, sigma, lam = _random_triple(rng, dims)
        c_kraus = equality_residual(rho, sigma, lam, alpha)
        c_dil = equality_residual_stinespring(rho, sigma, lam, alpha)
        diff = max(
            abs(c_kraus.residual - c_dil.residual),
            max_abs(c_kraus.rhs_operator - c_dil.rhs_operator),
        )
        worst = max(worst, diff)
        if diff > tol:
            report.failures.append({"trial": t, "alpha": alpha, "diff": diff})
    report.summary = {"max_route_difference": worst}
    return _finish(report, t0)


def run_variational_form(
    seed: int = 4, trials: int = 20, dims: int = 3, tolerances=None
) -> SuiteReport:
    """The critical observable attains the trace functional and no random
    candidate beats it (sup for alpha > 1, inf below 1)."""
    t0 = time.perf_counter()
    tol = _tolerances("variational-form", tolerances)["tol"]
    report = SuiteReport("variational-form", seed, trials)
    worst_attain = 0.0
    worst_beat = 0.0
    for alpha in (0.75, 2.0):
        for t in range(trials):
            rng = substream(seed, int(alpha * 100), t)
            d = int(rng.integers(2, dims + 1))
            rho = random_density(d, d, rng)
            sigma = random_density(d, d, rng)
            q = q_tilde(rho, sigma, alpha)
            attain = abs(f_alpha(h_hat(rho, sigma, alpha), rho, sigma, alpha) - q)
            worst_attain = max(worst_attain, attain)
            if attain > tol:
                report.failures.append(
                    {"case": "attainment", "alpha": alpha, "trial": t, "err": attain}
                )
            for k in range(10):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                h = (g @ g.conj().T) * rng.uniform(0.05, 3.0)
                f = f_alpha(h, rho, sigma, alpha)
                beat = (f - q) if alpha > 1.0 else (q - f)
                worst_beat = max(worst_beat, beat)
                if beat > tol:
                    report.failures.append(
                        {
                            "case": "optimality",
                            "alpha": alpha,
                            "trial": t,
                            "candidate": k,
                            "excess": beat,
                        }
                    )
    report.summary = {"worst_attainment": worst_attain, "worst_excess": worst_beat}
    return _finish(report, t0)


def run_petz_sufficiency(
    seed: int = 5, trials: int = 200, dims: int = 4, tolerances=None
) -> SuiteReport:
    """Recovery-map sufficiency matches the order-2 equality certificate,
    and sufficient instances have zero gap at every tested alpha > 1."""
    t0 = time.perf_counter()
    gap_tol = _tolerances("petz-sufficiency", tolerances)["gap"]
    report = SuiteReport("petz-sufficiency", seed, trials)
    n_true = 0
    for t in range(trials):
        rng = substream(seed, t)
        if t % 2 == 0:
            kind = "unitary" if t % 4 == 0 else "product-trace"
            rho, sigma, lam = _constructed_equality_instance(rng, kind)
        else:
            rho, sigma, lam = _random_triple(rng, dims)
        suff = sufficiency_test(rho, sigma, lam)
        cert = equality_residual(rho, sigma, lam, 2.0)
        if suff != (cert.verdict == "equal"):
            report.failures.append(
                {
                    "case": "verdict-mismatch",
                    "trial": t,
                    "sufficient": suff,
                    "residual": cert.residual,
                }
            )
        if suff:
            n_true += 1
            for alpha in (1.5, 2.0, 3.0):
                rep = dpi_check(rho, sigma, lam, alpha)
                if abs(rep.gap) > gap_tol:
                    report.failures.append(
                        {
                            "case": "gap-after-sufficiency",
                            "trial": t,
                            "alpha": alpha,
                            "gap": rep.gap,
                        }
                    )
    report.summary = {"sufficient_instances": n_true}
    return _finish(report, t0)


def run_fidelity_measurement(seed: int = 6, tolerances=None) -> SuiteReport:
    """A fidelity-attaining qubit measurement nulls the order-1/2 gap while
    the recovery map fails: equality without sufficiency."""
    t0 = time.perf_counter()
    gap_tol = _tolerances("fidelity-measurement", tolerances)["gap"]
    report = SuiteReport("fidelity-measurement", seed, 1)
    rng = substream(seed, 0)
    rho = random_density(2, 2, rng)
    sigma = random_density(2, 2, rng)
    comm = max_abs(rho @ sigma - sigma @ rho)
    povm, f_cl = fidelity_attaining_povm(rho, sigma)
    f_q = fidelity(rho, sigma)
    chan = measurement_channel(povm)
    rep = dpi_check(rho, sigma, chan, 0.5)
    suff = sufficiency_test(rho, sigma, chan)
    if comm < 1e-3:
        report.failures.append({"case": "pair-commutes", "comm": comm})
    if abs(rep.gap) > gap_tol:
        report.failures.append({"case": "gap", "gap": rep.gap})
    if suff:
        report.failures.append({"case": "unexpected-sufficiency"})
    report.summary = {
        "gap_at_half": rep.gap,
        "fidelity": f_q,
        "classical_fidelity": f_cl,
        "commutator_norm": comm,
        "sufficient": suff,
    }
    return _finish(report, t0)


def run_duality(seed: int = 7, trials: int = 50, tolerances=None) -> SuiteReport:
    """Conditional-entropy duality across a purification at dual orders."""
    t0 = time.perf_counter()
    tol = _tolerances("duality", tolerances)["gap"]
    report = SuiteReport("duality", seed, trials)
    worst = 0.0
    for pi, alpha in enumerate((2.0, 3.0, 0.75)):
        for t in range(trials):
            rng = substream(seed, pi, t)
            rho = random_density(4, int(rng.integers(2, 5)), rng)
            state = BipartiteState(rho, 2, 2)
            gap = duality_gap(state, alpha)
            worst = max(worst, gap)
            if gap > tol:
                report.failures.append({"alpha": alpha, "trial": t, "gap": gap})
    report.summary = {"max_duality_gap": worst}
    return _finish(report, t0)


def _random_saturating_spec(rng) -> SaturatingSpec:
    lam = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
    lam = lam / lam.sum()
    mu = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
    mu = mu / mu.sum()
    return SaturatingSpec(2, 2, lam, mu)


def run_araki_lieb(seed: int = 8, trials: int = 300, tolerances=None) -> SuiteReport:
    """Conditional-entropy sandwich on random states plus exact saturation
    of the constructed states at the dual pair (2, 2/3)."""
    t0 = time.perf_counter()
    tol = _tolerances("araki-lieb", tolerances)
    report = SuiteReport("araki-lieb", seed, trials)
    worst_slack = 0.0
    for t in range(trials):
        rng = substream(seed, 0, t)
        if t % 2 == 0:
            state = BipartiteState(random_density(4, int(rng.integers(1, 5)), rng), 2, 2)
        else:
            state = BipartiteState(random_density(6, int(rng.integers(1, 7)), rng), 2, 3)
        alpha = (0.5, 0.75, 2.0, 3.0)[t % 4]
        rep = araki_lieb_renyi(state, alpha)
        violation = max(rep.lower - rep.value, rep.value - rep.upper)
        worst_slack = max(worst_slack, violation)
        if violation > tol["slack"]:
            report.failures.append(
                {"case": "sandwich", "trial": t, "alpha": alpha, "violation": violation}
            )
    worst_sat = 0.0
    for t in range(10):
        rng = substream(seed, 1, t)
        state = saturating_state(_random_saturating_spec(rng))
        value, _ = conditional_renyi(state, 2.0 / 3.0)
        s_alpha = renyi_entropy(state.marginal_a(), 2.0)
        sat = abs(value + s_alpha)
        worst_sat = max(worst_sat, sat)
        if sat > tol["saturation"]:
            report.failures.append({"case": "saturation", "trial": t, "residual": sat})
    report.summary = {"worst_sandwich_violation": worst_slack, "worst_saturation": worst_sat}
    return _finish(report, t0)


def run_reof(seed: int = 9, trials: int = 4, tolerances=None) -> SuiteReport:
    """Formation-entropy minimizer against its analytic targets."""
    t0 = time.perf_counter()
    tol = _tolerances("reof", tolerances)
    report = SuiteReport("reof", seed, trials)
    worst_sat = 0.0
    for t in range(trials):
        rng = substream(seed, 0, t)
        state = saturating_state(_random_saturating_spec(rng))
        value, ensemble = reof_minimize(state, 2.0, restarts=1, seed=seed + t)
        target, _ = conditional_renyi(state, 2.0 / 3.0)
        err = abs(value - (-target))
        worst_sat = max(worst_sat, err)
        if err > tol["saturating"]:
            report.failures.append({"case": "saturating", "trial": t, "err": err})
        recon = max_abs(ensemble.reconstruct() - state.mat)
        if recon > 1e-9:
            report.failures.append(
                {"case": "ensemble-reconstruction", "trial": t, "err": recon}
            )
        lower = reof_lower_bound(state, 2.0)
        if value < lower - 1e-6:
            report.failures.append(
                {"case": "below-lower-bound", "trial": t, "value": value, "lower": lower}
            )
    phi = np.zeros(4, dtype=np.complex128)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    me_state = BipartiteState(projector(phi), 2, 2)
    me_val, _ = reof_minimize(me_state, 2.0, restarts=1, seed=seed)
    if abs(me_val - 1.0) > tol["maximally_entangled"]:
        report.failures.append({"case": "maximally-entangled", "value": me_val})
    worst_prod = 0.0
    for t in range(trials):
        rng = substream(seed, 1, t)
        prod = tensor(random_density(2, 2, rng), random_density(2, 2, rng))
        val, _ = reof_minimize(
            BipartiteState(prod, 2, 2), 2.0, ensemble_size=8, restarts=1, seed=seed + t
        )
        worst_prod = max(worst_prod, abs(val))
        if abs(val) > tol["product"]:
            report.failures.append({"case": "product", "trial": t, "value": val})
    report.summary = {
        "worst_saturating_error": worst_sat,
        "maximally_entangled_value": me_val,
        "worst_product_value": worst_prod,
    }
    return _finish(report, t0)


def run_entanglement_fidelity_purity(
    seed: int = 10, trials: int = 100, dims: int = 3, tolerances=None
) -> SuiteReport:
    """The fidelity-squared bound is tight exactly on pure inputs."""
    t0 = time.perf_counter()
    tol = _tolerances("entanglement-fidelity-purity", tolerances)
    report = SuiteReport("entanglement-fidelity-purity", seed, trials)
    worst_pure = 0.0
    for t in range(trials):
        rng = substream(seed, 0, t)
        d = int(rng.integers(2, dims + 1))
        psi = random_pure(d, rng)
        lam = random_channel(d, d, int(rng.integers(1, 4)), rng)
        rep = fe_equality_check(projector(psi), lam)
        worst_pure = max(worst_pure, abs(rep.bound_gap))
        if abs(rep.bound_gap) > tol["pure"] or not rep.is_pure:
            report.failures.append(
                {"case": "pure", "trial": t, "gap": rep.bound_gap}
            )
    min_mixed = math.inf
    for t in range(2 * trials):
        rng = substream(seed, 1, t)
        d = int(rng.integers(2, dims + 1))
        rho = random_density(d, int(rng.integers(2, d + 1)), rng)
        lam = random_channel(d, d, int(rng.integers(1, 4)), rng)
        rep = fe_equality_check(rho, lam)
        min_mixed = min(min_mixed, rep.bound_gap)
        if rep.bound_gap <= tol["mixed"] or rep.is_pure:
            report.failures.append(
                {"case": "mixed", "trial": t, "gap": rep.bound_gap}
            )
    report.summary = {"worst_pure_gap": worst_pure, "min_mixed_gap": min_mixed}
    return _finish(report, t0)


def run_violation_search(
    seed: int = 11, trials: int = 20000, tolerances=None, alpha: float = 0.3
) -> SuiteReport:
    """Processing-inequality violation hunt below 1/2 with its 1/2 control."""
    t0 = time.perf_counter()
    tol = _tolerances("dpi-violation-below-half", tolerances)
    report = SuiteReport("dpi-violation-below-half", seed, trials)
    found = dpi_violation_search(alpha, trials, seed)
    if found.gap >= -tol["violation"]:
        report.failures.append({"case": "no-violation", "alpha": alpha, "gap": found.gap})
    control = dpi_violation_search(0.5, trials, seed)
    if control.gap < -tol["control"]:
        report.failures.append({"case": "control", "alpha": 0.5, "gap": control.gap})
    report.summary = {
        "violation_gap": found.gap,
        "violation_alpha": alpha,
        "control_gap": control.gap,
    }
    return _finish(report, t0)


def run_classical_reduction(
    seed: int = 12, trials: int = 100, dims: int = 4, tolerances=None
) -> SuiteReport:
    """Commuting inputs reduce to scalar formulas; alpha -> 1 continuity."""
    t0 = time.perf_counter()
    tol = _tolerances("classical-reduction", tolerances)
    report = SuiteReport("classical-reduction", seed, trials)
    worst_comm = 0.0
    for t in range(trials):
        rng = substream(seed, 0, t)
        d = int(rng.integers(2, dims + 1))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        rho = np.diag(p).astype(np.complex128)
        sig = np.diag(q).astype(np.complex128)
        for alpha in ALPHA_GRID:
            oracle = float(np.log2(np.sum(p**alpha * q ** (1.0 - alpha))) / (alpha - 1.0))
            for route in (srd, rre):
                got = route(rho, sig, alpha).value
                err = abs(got - oracle)
                worst_comm = max(worst_comm, err)
                if err > tol["commuting"]:
                    report.failures.append(
                        {"case": "commuting", "trial": t, "alpha": alpha, "err": err}
                    )
        kl_oracle = float(np.sum(p * np.log2(p / q)))
        err = abs(qre(rho, sig).value - kl_oracle)
        worst_comm = max(worst_comm, err)
        if err > tol["commuting"]:
            report.failures.append({"case": "commuting-qre", "trial": t, "err": err})
    worst_cont = 0.0
    for t in range(trials):
        rng = substream(seed, 1, t)
        d = int(rng.integers(2, dims + 1))
        # spectral floor keeps d(divergence)/d(alpha) of order one, so the
        # 1e-4 step resolves the alpha -> 1 limit within 1e-3
        eye = np.eye(d, dtype=np.complex128) / d
        rho = 0.85 * random_density(d, d, rng) + 0.15 * eye
        sig = 0.85 * random_density(d, d, rng) + 0.15 * eye
        base = qre(rho, sig).value
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            err = abs(srd(rho, sig, alpha).value - base)
            worst_cont = max(worst_cont, err)
            if err > tol["continuity"]:
                report.failures.append(
                    {"case": "continuity", "trial": t, "alpha": alpha, "err": err}
                )
    report.summary = {
        "worst_commuting_error": worst_comm,
        "worst_continuity_error": worst_cont,
    }
    return _finish(report, t0)


SUITES = {
    "dpi-holds": run_dpi_holds,
    "equality-certificate": run_equality_certificate,
    "stinespring-agreement": run_stinespring_agreement,
    "variational-form": run_variational_form,
    "petz-sufficiency": run_petz_sufficiency,
    "fidelity-measurement": run_fidelity_measurement,
    "duality": run_duality,
    "araki-lieb": run_araki_lieb,
    "reof": run_reof,
    "entanglement-fidelity-purity": run_entanglement_fidelity_purity,
    "dpi-violation-below-half": run_violation_search,
    "classical-reduction": run_classical_reduction,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run a named suite; raises ValueError for an option the suite does not take."""
    if name not in SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    runner = SUITES[name]
    try:
        inspect.signature(runner).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"suite {name!r}: {exc}") from None
    return runner(**kwargs)
