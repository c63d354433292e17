"""Sandwiched Renyi divergences, processing-inequality equality
diagnostics, recovery maps, and entanglement measures at desk scale."""

__version__ = "0.1.0"

from .channels import (
    QuantumChannel,
    StinespringDilation,
    amplitude_damping,
    apply,
    apply_adjoint,
    completely_dephasing,
    depolarizing,
    identity_channel,
    measurement_channel,
    partial_trace_channel,
    pinching_channel,
    random_channel,
    stinespring,
    unitary_channel,
)
from .divergences import (
    DivergenceValue,
    RenyiOrder,
    conditional_entropy,
    conditional_renyi,
    d_max,
    duality_gap,
    f_alpha,
    h_hat,
    kl,
    q_tilde,
    qre,
    renyi_entropy,
    rre,
    srd,
    von_neumann_entropy,
)
from .dpi import (
    DpiReport,
    EqualityCertificate,
    RecoveryMap,
    ViolationSearchResult,
    dpi_check,
    dpi_violation_search,
    equality_residual,
    equality_residual_partial_trace,
    equality_residual_stinespring,
    fidelity_attaining_povm,
    petz_recovery,
    sufficiency_test,
)
from .entanglement import (
    ArakiLiebReport,
    PureStateEnsemble,
    SaturatingSpec,
    araki_lieb_renyi,
    check_saturation_conditions,
    entanglement_fidelity,
    eof_lower_bound,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
    saturating_state,
)
from .linalg import (
    Spectrum,
    SupportInfo,
    fidelity,
    hermitian_eig,
    matrix_power_on_support,
    partial_trace,
    support_of,
    tensor,
    trace_norm,
)
from .states import (
    BipartiteState,
    RankProfile,
    maximally_mixed,
    projector,
    purify,
    random_density,
    random_pure,
    random_unitary,
    rank_profile,
    substream,
)
from .suites import SUITES, SuiteReport, run_suite
