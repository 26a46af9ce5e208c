"""Drift parameter estimation for (fractional) SDEs from repeated observations.

Simulates bundles of solution paths of dX = theta0 b(X) dt + sigma dB driven
by fractional Brownian motion, and estimates theta0 either by a computable
fixed-point construction (H > 1/2) or by discrete-time least squares
(H = 1/2), with truncated variants, confidence intervals and a Monte Carlo
experiment engine on top.
"""

from .errors import (
    ConfigError,
    DegenerateStatisticsError,
    DivergenceError,
    FpdriftError,
)
from .fbm import (
    CrossCorrelation,
    Grid,
    HurstParams,
    PathBundle,
    block_correlation,
    dependence_count,
    fbm_covariance,
    sample_fbm_bundle,
)
from .sde import (
    DriftModel,
    SdeSpec,
    VolModel,
    constant_vol,
    drift_model,
    euler_additive,
    euler_multiplicative,
    extract_regeneration_copies,
)
from .estimators import (
    BmEstimatorCache,
    EstimateBM,
    EstimateFBM,
    FbmEstimatorCache,
    SufficientStats,
    check_omega,
    dmax_from_lower_bound,
    dmax_ou,
    estimate_bm,
    estimate_fbm,
    fixed_point,
    iteration_schedule,
    max_horizon,
    normal_quantile,
)
from .montecarlo import (
    ExperimentConfig,
    SummaryReport,
    TrialResult,
    coverage_experiment,
    default_workers,
    run_experiment,
    run_trial,
    run_trials,
    summarize,
    threshold_sweep,
)
from .config import RunConfig, parse_config

__all__ = [
    "ConfigError",
    "DegenerateStatisticsError",
    "DivergenceError",
    "FpdriftError",
    "CrossCorrelation",
    "Grid",
    "HurstParams",
    "PathBundle",
    "block_correlation",
    "dependence_count",
    "fbm_covariance",
    "sample_fbm_bundle",
    "DriftModel",
    "SdeSpec",
    "VolModel",
    "constant_vol",
    "drift_model",
    "euler_additive",
    "euler_multiplicative",
    "extract_regeneration_copies",
    "BmEstimatorCache",
    "EstimateBM",
    "EstimateFBM",
    "FbmEstimatorCache",
    "SufficientStats",
    "check_omega",
    "dmax_from_lower_bound",
    "dmax_ou",
    "estimate_bm",
    "estimate_fbm",
    "fixed_point",
    "iteration_schedule",
    "max_horizon",
    "normal_quantile",
    "ExperimentConfig",
    "SummaryReport",
    "TrialResult",
    "coverage_experiment",
    "default_workers",
    "run_experiment",
    "run_trial",
    "run_trials",
    "summarize",
    "threshold_sweep",
    "RunConfig",
    "parse_config",
]

__version__ = "0.1.0"
