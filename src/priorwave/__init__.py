"""Prior-aware MIMO radar transmit waveform design and evaluation."""

# First: it sets the BLAS thread default before anything loads numpy.
from . import fanout  # noqa: F401
from .admm import AdmmTrace
from .estimation import (
    AngularGrid,
    MapEstimator,
    SnrResult,
    lag_coefficients,
    monte_carlo_mse,
)
from .pcrb import (
    pcrb_theta,
    pcrb_upper_bound,
)
from .priors import (
    DistributionMoments,
    MixtureGaussian,
    MixtureUniform,
    TargetDistribution,
    compute_moments,
)
from .solvers import (
    AdmmState,
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
    steering_derivative_matrix,
    steering_matrix,
    waveform_feasibility,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AdmmState",
    "AdmmTrace",
    "AngularGrid",
    "ArrayConfig",
    "DistributionMoments",
    "Feasibility",
    "MapEstimator",
    "MixtureGaussian",
    "MixtureUniform",
    "SnrResult",
    "SolveResult",
    "TargetDistribution",
    "baseline_crb",
    "baseline_omni",
    "beampattern",
    "compute_moments",
    "lag_coefficients",
    "monte_carlo_mse",
    "pcrb_theta",
    "pcrb_upper_bound",
    "solve_pcrb",
    "solve_psbp_fair",
    "solve_psbp_integrated",
    "steering_derivative_matrix",
    "steering_matrix",
    "waveform_feasibility",
]
