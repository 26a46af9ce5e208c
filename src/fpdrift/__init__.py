"""Drift parameter estimation for (fractional) SDEs from repeated observations.

Simulates bundles of solution paths of dX = theta0 b(X) dt + sigma dB driven
by fractional Brownian motion, and estimates theta0 either by a computable
fixed-point construction (H > 1/2) or by discrete-time least squares
(H = 1/2), with truncated variants, confidence intervals and a Monte Carlo
experiment engine on top.
"""

from .errors import ConfigError, DegenerateStatisticsError, DivergenceError, FpdriftError
from .fbm import (CrossCorrelation, Grid, HurstParams, PathBundle, block_correlation,
                  fbm_covariance, sample_fbm_bundle)
from .sde import DriftModel, SdeSpec, drift_model, euler_additive
from .estimators import (BmEstimatorCache, EstimateBM, EstimateFBM, FbmEstimatorCache,
                         SufficientStats, check_omega, dmax_from_lower_bound, dmax_ou,
                         fixed_point, iteration_schedule, normal_quantile)
from .montecarlo import (ExperimentConfig, SummaryReport, coverage_experiment, default_workers,
                         run_experiment, run_trial, run_trials, summarize, threshold_sweep)
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
    "fbm_covariance",
    "sample_fbm_bundle",
    "DriftModel",
    "SdeSpec",
    "drift_model",
    "euler_additive",
    "BmEstimatorCache",
    "EstimateBM",
    "EstimateFBM",
    "FbmEstimatorCache",
    "SufficientStats",
    "check_omega",
    "dmax_from_lower_bound",
    "dmax_ou",
    "fixed_point",
    "iteration_schedule",
    "normal_quantile",
    "ExperimentConfig",
    "SummaryReport",
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
