"""Every public function that takes a positive operator checks it at entry.

One table: for each such matrix argument, a NaN entry, a non-Hermitian
matrix and a Hermitian matrix with a negative eigenvalue each raise the
package's own error.  Matrices with no positivity contract (observables,
Kraus operators, unitaries, the argument of ``hermitian_eig``) are not
listed.  A second table checks that what passes the check is what the
function works on: an asymmetry inside the tolerance changes no result.
A third checks that what is checked is what a caller passes: every call
above, on valid input, checks only the arrays it is handed, and no
function taking a ``BipartiteState`` checks its matrix again, or its
marginals; a function checks only the states it makes itself.  A fourth
checks that a rho and a sigma of different shapes raise DimensionMismatch,
and so do two stacks.
"""

import numpy as np
import pytest

from qrenyi.channels import (
    amplitude_damping,
    identity_channel,
    measurement_channel,
    random_channel,
)
from qrenyi.divergences import (
    classify_supports,
    conditional_entropy,
    conditional_renyi,
    d_max,
    duality_gap,
    f_alpha,
    h_hat,
    q_tilde,
    qre,
    renyi_entropy,
    rre,
    srd,
    von_neumann_entropy,
)
from qrenyi.dpi import (
    dpi_check,
    equality_residual,
    equality_residual_partial_trace,
    equality_residual_stinespring,
    fidelity_attaining_povm,
    fuchs_caves_observable,
    petz_recovery,
    sufficiency_test,
)
from qrenyi.entanglement import (
    araki_lieb_renyi,
    check_saturation_conditions,
    entanglement_fidelity,
    eof_lower_bound,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
)
from qrenyi.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
)
from qrenyi.linalg import (
    fidelity,
    hermitian_part,
    matrix_power_on_support,
    support_of,
)
from qrenyi.states import (
    BipartiteState,
    check_density,
    check_positive,
    purify,
    random_density,
    rank_profile,
)

GOOD = random_density(2, 2, 617)
GOOD_AB = random_density(4, 4, 618)
CHANNEL = amplitude_damping(0.3)

#: Bad 2x2 values and the error each raises; a full-rank partner keeps a
#: negative eigenvalue visible to functions that read rho on supp(sigma).
#: A stack of two good matrices raises DimensionMismatch: a caller's
#: argument is one matrix.
BAD = {
    "nan": (np.array([[np.nan, 0.0], [0.0, 0.5]]), NonFiniteInput),
    "non-hermitian": (np.array([[0.5, 0.3], [0.0, 0.5]]), NonHermitianInput),
    "non-psd": (np.diag([1.2, -0.2]), NegativeEigenvalue),
    "stack": (np.stack([GOOD, GOOD]), DimensionMismatch),
}


def _ab(m):
    """``m (x) 1/2``: a 4x4 operator as bad as the 2x2 value ``m``."""
    return np.kron(m, np.eye(2) / 2)


def _state(m):
    return BipartiteState(_ab(m), 2, 2)


# (function and argument, call with the bad value in that argument)
CALLS = {
    "matrix_power_on_support": lambda m: matrix_power_on_support(m, 0.5),
    "support_of": support_of,
    "fidelity-omega": lambda m: fidelity(m, GOOD),
    "fidelity-tau": lambda m: fidelity(GOOD, m),
    "check_positive": check_positive,
    "check_density": check_density,
    "purify": purify,
    "rank_profile": lambda m: rank_profile(_state(m)),
    "classify_supports-rho": lambda m: classify_supports(m, GOOD),
    "classify_supports-sigma": lambda m: classify_supports(GOOD, m),
    "q_tilde-rho": lambda m: q_tilde(m, GOOD, 2.0),
    "q_tilde-sigma": lambda m: q_tilde(GOOD, m, 2.0),
    "srd-rho": lambda m: srd(m, GOOD, 2.0),
    "srd-sigma": lambda m: srd(GOOD, m, 2.0),
    "rre-rho": lambda m: rre(m, GOOD, 2.0),
    "rre-sigma": lambda m: rre(GOOD, m, 2.0),
    "qre-rho": lambda m: qre(m, GOOD),
    "qre-sigma": lambda m: qre(GOOD, m),
    "d_max-rho": lambda m: d_max(m, GOOD),
    "d_max-sigma": lambda m: d_max(GOOD, m),
    "f_alpha-h": lambda m: f_alpha(m, GOOD, GOOD, 2.0),
    "f_alpha-rho": lambda m: f_alpha(GOOD, m, GOOD, 2.0),
    "f_alpha-sigma": lambda m: f_alpha(GOOD, GOOD, m, 2.0),
    "h_hat-rho": lambda m: h_hat(m, GOOD, 2.0),
    "h_hat-sigma": lambda m: h_hat(GOOD, m, 2.0),
    "renyi_entropy": lambda m: renyi_entropy(m, 2.0),
    "von_neumann_entropy": von_neumann_entropy,
    "conditional_entropy": lambda m: conditional_entropy(_state(m)),
    "conditional_renyi": lambda m: conditional_renyi(_state(m), 2.0),
    "duality_gap": lambda m: duality_gap(_state(m), 2.0),
    "dpi_check-rho": lambda m: dpi_check(m, GOOD, CHANNEL, 2.0),
    "dpi_check-sigma": lambda m: dpi_check(GOOD, m, CHANNEL, 2.0),
    "equality_residual-rho": lambda m: equality_residual(m, GOOD, CHANNEL, 2.0),
    "equality_residual-sigma": lambda m: equality_residual(GOOD, m, CHANNEL, 2.0),
    "equality_residual_stinespring-rho":
        lambda m: equality_residual_stinespring(m, GOOD, CHANNEL, 2.0),
    "equality_residual_stinespring-sigma":
        lambda m: equality_residual_stinespring(GOOD, m, CHANNEL, 2.0),
    "equality_residual_partial_trace-rho":
        lambda m: equality_residual_partial_trace(_ab(m), GOOD_AB, 2, 2, 2.0),
    "equality_residual_partial_trace-sigma":
        lambda m: equality_residual_partial_trace(GOOD_AB, _ab(m), 2, 2, 2.0),
    "petz_recovery": lambda m: petz_recovery(m, CHANNEL),
    "sufficiency_test-rho": lambda m: sufficiency_test(m, GOOD, CHANNEL),
    "sufficiency_test-sigma": lambda m: sufficiency_test(GOOD, m, CHANNEL),
    "fidelity_attaining_povm-rho": lambda m: fidelity_attaining_povm(m, GOOD),
    "fidelity_attaining_povm-sigma": lambda m: fidelity_attaining_povm(GOOD, m),
    "fuchs_caves_observable-rho": lambda m: fuchs_caves_observable(m, GOOD),
    "fuchs_caves_observable-sigma": lambda m: fuchs_caves_observable(GOOD, m),
    "araki_lieb_renyi": lambda m: araki_lieb_renyi(_state(m), 2.0),
    "check_saturation_conditions": lambda m: check_saturation_conditions(_state(m)),
    "eof_lower_bound": lambda m: eof_lower_bound(_state(m)),
    "reof_lower_bound": lambda m: reof_lower_bound(_state(m), 2.0),
    "reof_minimize": lambda m: reof_minimize(_state(m), 2.0, restarts=0),
    "entanglement_fidelity": lambda m: entanglement_fidelity(m, identity_channel(2)),
    "fe_equality_check": lambda m: fe_equality_check(m, identity_channel(2)),
    # the second element completes the first to the identity
    "measurement_channel": lambda m: measurement_channel([m, np.eye(2) - m]),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("call", CALLS)
def test_bad_matrix_raises_the_package_error(call, bad):
    value, error = BAD[bad]
    with pytest.raises(error):
        CALLS[call](value.astype(complex))


#: |+><+| with an antisymmetric defect just inside HERMITICITY_TOL: the
#: checks pass it, but its lower triangle alone is a full-rank operator,
#: with a kernel eigenvalue above the support cutoff.
SKEW = np.array([[0.5, 0.5 + 2.4e-10], [0.5 - 2.4e-10, 0.5]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
IDENTITY = identity_channel(2)
#: A channel whose images of SKEW's two readings differ past the last bit.
MIXING = random_channel(2, 2, 2, 5)


def _ops(cert):
    return np.array([cert.lhs_operator, cert.rhs_operator])


def _sides(report):
    return np.array([report.lhs.value, report.rhs.value])


# (function and argument, call returning an array of results); alpha = 0.75
# raises the spurious kernel eigenvalue to a negative power
WORKS_ON_CHECKED = {
    "h_hat-rho": lambda m: h_hat(m, MIXED, 0.75),
    "q_tilde-rho": lambda m: q_tilde(m, MIXED, 0.75),
    "srd-rho": lambda m: srd(m, MIXED, 0.75).value,
    "d_max-rho": lambda m: d_max(m, MIXED).value,
    "equality_residual-rho":
        lambda m: _ops(equality_residual(m, MIXED, IDENTITY, 0.75)),
    "equality_residual-sigma":
        lambda m: _ops(equality_residual(MIXED, m, CHANNEL, 0.75)),
    "equality_residual_stinespring-sigma":
        lambda m: _ops(equality_residual_stinespring(MIXED, m, CHANNEL, 0.75)),
    "equality_residual_partial_trace-sigma":
        lambda m: _ops(equality_residual_partial_trace(GOOD_AB, _ab(m), 2, 2, 0.75)),
    "petz_recovery-identity": lambda m: petz_recovery(m, IDENTITY).channel.kraus,
    "petz_recovery-damping": lambda m: petz_recovery(m, CHANNEL).channel.kraus,
    "conditional_renyi": lambda m: conditional_renyi(_state(m), 0.75)[0],
    "duality_gap": lambda m: duality_gap(_state(m), 0.75),
    "araki_lieb_renyi": lambda m: araki_lieb_renyi(_state(m), 0.75).value,
    "check_saturation_conditions":
        lambda m: check_saturation_conditions(_state(m)).residual,
    "fe_equality_check": lambda m: fe_equality_check(m, CHANNEL).bound_gap,
    "dpi_check-rho": lambda m: _sides(dpi_check(m, GOOD, MIXING, 0.75)),
    "dpi_check-sigma": lambda m: _sides(dpi_check(GOOD, m, MIXING, 0.75)),
}


@pytest.mark.parametrize("call", WORKS_ON_CHECKED)
def test_in_tolerance_asymmetry_changes_no_result(call):
    # the checks symmetrize SKEW to exactly hermitian_part(SKEW), so a
    # function that works on the checked matrix gives identical results
    fn = WORKS_ON_CHECKED[call]
    np.testing.assert_array_equal(fn(SKEW), fn(hermitian_part(SKEW)))


#: Every function that takes a BipartiteState, on the state alone.
STATE_CALLS = {
    "conditional_renyi": lambda st: conditional_renyi(st, 2.0),
    "conditional_entropy": conditional_entropy,
    "duality_gap-2": lambda st: duality_gap(st, 2.0),
    "duality_gap-1": lambda st: duality_gap(st, 1.0),
    "araki_lieb_renyi": lambda st: araki_lieb_renyi(st, 2.0),
    "reof_minimize": lambda st: reof_minimize(st, 2.0, restarts=0),
    "check_saturation_conditions": check_saturation_conditions,
    "rank_profile": rank_profile,
    "reof_lower_bound": lambda st: reof_lower_bound(st, 2.0),
    "eof_lower_bound": eof_lower_bound,
}

#: The states a call makes itself, each checked when made: duality_gap's
#: rho_AC and reof_lower_bound's swap.
STATES_MADE = {"duality_gap": 1, "reof_lower_bound": 1}


@pytest.mark.parametrize("call", STATE_CALLS)
def test_state_matrix_is_checked_only_when_made(call, count_calls):
    import qrenyi.linalg as linalg

    st = BipartiteState(random_density(4, 3, 937), 2, 2)
    checks = count_calls(linalg, "check_hermitian")
    STATE_CALLS[call](st)
    assert not [
        a for (a, *_) in checks if a.shape == st.mat.shape and np.array_equal(a, st.mat)
    ]
    assert len(checks) == STATES_MADE.get(call.split("-")[0], 0)


@pytest.mark.parametrize("call", CALLS)
def test_checks_only_what_the_call_hands_over(call, count_calls):
    # a full-rank 2x2 state, valid in every argument of the table
    import qrenyi.linalg as linalg

    m = random_density(2, 2, 619)
    handed = [m, GOOD, GOOD_AB, _ab(m), np.eye(2) - m]
    checks = count_calls(linalg, "check_hermitian")
    CALLS[call](m)
    made = [
        a for (a, *_) in checks
        if not any(a.shape == h.shape and np.array_equal(a, h) for h in handed)
    ]
    assert len(made) == STATES_MADE.get(call, 0)


_PAIR_2 = random_density(2, 2, 620)
_PAIR_3 = random_density(3, 3, 621)
_PAIR_4, _PAIR_6 = random_density(4, 4, 622), random_density(6, 6, 623)

#: Every function that takes a rho and a sigma, on a 2x2 rho and a 3x3
#: sigma (4x4 and 6x6 for the partial-trace route)
SHAPE_CALLS = {
    "srd": lambda r, s: srd(r, s, 2.0),
    "rre": lambda r, s: rre(r, s, 2.0),
    "qre": qre,
    "d_max": d_max,
    "q_tilde": lambda r, s: q_tilde(r, s, 2.0),
    "h_hat": lambda r, s: h_hat(r, s, 2.0),
    "classify_supports": classify_supports,
    "dpi_check": lambda r, s: dpi_check(r, s, CHANNEL, 2.0),
    "equality_residual": lambda r, s: equality_residual(r, s, CHANNEL, 2.0),
    "equality_residual_stinespring":
        lambda r, s: equality_residual_stinespring(r, s, CHANNEL, 2.0),
    "equality_residual_partial_trace":
        lambda r, s: equality_residual_partial_trace(r, s, 2, 2, 2.0),
    "fidelity_attaining_povm": fidelity_attaining_povm,
    "fuchs_caves_observable": fuchs_caves_observable,
}


@pytest.mark.parametrize("call", SHAPE_CALLS)
def test_shape_mismatch_raises_naming_both_shapes(call):
    rho, sigma = (
        (_PAIR_4, _PAIR_6) if call == "equality_residual_partial_trace"
        else (_PAIR_2, _PAIR_3)
    )
    with pytest.raises(DimensionMismatch) as err:
        SHAPE_CALLS[call](rho, sigma)
    assert str(rho.shape) in str(err.value) and str(sigma.shape) in str(err.value)


@pytest.mark.parametrize("call", SHAPE_CALLS)
def test_stacked_pair_raises_dimension_mismatch(call):
    rho, sigma = (
        (GOOD_AB, _PAIR_4) if call == "equality_residual_partial_trace"
        else (GOOD, _PAIR_2)
    )
    with pytest.raises(DimensionMismatch):
        SHAPE_CALLS[call](np.stack([rho, rho]), np.stack([sigma, sigma]))
