"""Continuous-variable quantum relay analysis in correlated Gaussian environments."""

from .gaussian import (
    CovarianceMatrix,
    GaussianState,
    NumericDegeneracyError,
    SymplecticMatrix,
    ValidationError,
    apply_symplectic,
    beam_splitter,
    condition_on_gaussian_measurement,
    direct_sum,
    displace,
    entropic_h,
    expand_symplectic,
    log_negativity,
    partial_transpose,
    permute_modes,
    quadrature_squeezer,
    rotation,
    smallest_pts_eigenvalue,
    symplectic_form,
    symplectic_spectrum,
    thermal_cm,
    tmsv_cm,
    two_mode_spectrum,
    vacuum_cm,
    von_neumann_entropy,
)
from .environments import (
    AdditiveEnvironment,
    ThermalEnvironment,
    additive_env_classical_cm,
    additive_limit,
    entanglement_breaking_threshold,
    env_mutual_information,
    kappa_params,
    thermal_env_cm,
)
from .protocols import (
    ProtocolReport,
    SwapInput,
    TeleportCorrection,
    additive_reactivation_c,
    evolved_cm,
    key_rate_from_cm,
    protocol_report,
    protocol_report_asymptotic,
    qkd_rate,
    repeater_bound_phi,
    swapped_cm,
    teleport_correction,
    thermal_reactivation_g,
)
from .entanglement import (
    QuadripartiteRegion,
    ppt_min_eigenvalue,
    quad_sigma_functions,
    TripartiteClass,
    quadripartite_classify,
    quadripartite_numeric,
    tripartite_classify,
)
from .experiment import (
    EstimatedState,
    ExperimentConfig,
    ShotBatch,
    estimate_from_second_moments,
    exact_second_moments,
    run_point,
    simulate_shot_batch,
)

__version__ = "0.1.0"
