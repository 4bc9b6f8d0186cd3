"""Prior-aware MIMO radar transmit waveform design and evaluation."""

import os
import sys

# One BLAS thread, unless the user chose otherwise: only a process without
# BLAS threads may fork, so that ``run`` can fan its method chains out over
# the CPUs (``fanout``). OpenBLAS reads the setting once, as numpy loads, so
# it takes effect only when this package loads first; it is then removed
# again, so that child processes see the environment they were given.
if "OPENBLAS_NUM_THREADS" in os.environ or "numpy" in sys.modules:
    _ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: E402, F401
    del os.environ["OPENBLAS_NUM_THREADS"]
    _ONE_BLAS_THREAD = True

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
