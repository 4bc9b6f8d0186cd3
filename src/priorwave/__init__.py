"""Prior-aware MIMO radar transmit waveform design and evaluation."""

from .admm import AdmmConfig, AdmmTrace, papr_project, quad_x_update
from .estimation import (
    AngularGrid,
    MapEstimator,
    MseReport,
    SnrResult,
    map_estimate,
    monte_carlo_mse,
)
from .pcrb import (
    FimBlocks,
    PcrbBreakdown,
    fim_signal,
    pcrb_breakdown,
    pcrb_theta,
    pcrb_upper_bound,
)
from .priors import (
    DistributionMoments,
    MixtureGaussian,
    MixtureUniform,
    PointMass,
    TargetDistribution,
    compute_moments,
)
from .solvers import (
    SolveResult,
    baseline_crb,
    baseline_omni,
    solve_pcrb,
    solve_psbp_fair,
    solve_psbp_integrated,
)
from .ula import (
    ArrayConfig,
    Feasibility,
    beampattern,
    steering,
    steering_derivative,
    steering_derivative_matrix,
    steering_matrix,
    synthesize_received,
    waveform_feasibility,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AdmmConfig",
    "AdmmTrace",
    "AngularGrid",
    "ArrayConfig",
    "DistributionMoments",
    "Feasibility",
    "FimBlocks",
    "MapEstimator",
    "MixtureGaussian",
    "MixtureUniform",
    "MseReport",
    "PcrbBreakdown",
    "PointMass",
    "SnrResult",
    "SolveResult",
    "TargetDistribution",
    "baseline_crb",
    "baseline_omni",
    "beampattern",
    "compute_moments",
    "fim_signal",
    "map_estimate",
    "monte_carlo_mse",
    "papr_project",
    "pcrb_breakdown",
    "pcrb_theta",
    "pcrb_upper_bound",
    "quad_x_update",
    "solve_pcrb",
    "solve_psbp_fair",
    "solve_psbp_integrated",
    "steering",
    "steering_derivative",
    "steering_derivative_matrix",
    "steering_matrix",
    "synthesize_received",
    "waveform_feasibility",
]
