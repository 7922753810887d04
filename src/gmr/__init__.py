"""Generalized mean-reverting SDEs driven by rough Gaussian signals.

Simulation of dx = (a - b x) dt + sigma x^beta dw for Holder-continuous
Gaussian drivers (fBm and friends), via a positivity-preserving implicit
Euler scheme on the transformed equation, plus the statistical layer:
moment and hitting-time probes, exact likelihood of discretely observed
pharmacokinetic concentrations, and initial-dose sensitivities.
"""

from .drivers import (
    CovarianceError,
    CovarianceKernel,
    SamplePath,
    brownian_kernel,
    custom_kernel,
    fbm_kernel,
    kernel_eval,
    sample_path_matrix,
    sample_paths,
    uniform_grid,
)
from .montecarlo import (
    EnsembleSpec,
    EnsembleStats,
    ensemble_simulate,
    ensemble_stats,
    hitting_time_stats,
    survival_bound_check,
)
from .pk import (
    ConcentrationSeries,
    PkParams,
    SensitivitySpec,
    ThetaBounds,
    ThetaEstimate,
    deterministic_concentration,
    fit_mle,
    log_likelihood,
    sensitivity_fd,
    sensitivity_plsin,
    simulate_concentration,
    z_mean,
)
from .solver import (
    EulerSolution,
    RateReport,
    RootSolveError,
    convergence_study,
    implicit_euler,
    implicit_step_root,
    solve_gmr,
    solve_matrix,
)
from .transform import (
    ModelParams,
    first_hit,
    theta_weight,
    tilde_w_matrix,
    tilde_w_path,
    y0_from_x0,
)

__version__ = "0.1.0"
