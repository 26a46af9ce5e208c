"""Replicated-experiment engine: trial orchestration, reproducible seeding,
summaries, threshold sweeps and coverage studies.

Each trial draws one noise bundle of n_max copies from a seed derived as
SeedSequence(master_seed, spawn_key=(trial_index,)), simulates the solutions
once, and evaluates the estimator on path prefixes 1..N. This prefix reuse
makes the per-trial trajectory N -> estimate a function of a single simulation,
and keeps every trial deterministic in (config, trial_index) regardless of how
trials are scheduled across workers.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateStatisticsError, DivergenceError
from .fbm import Grid, HurstParams, PathBundle, block_correlation, sample_fbm_bundle
from .sde import DriftModel, SdeSpec, drift_model, euler_additive
from .estimators import BmEstimatorCache, FbmEstimatorCache, DEFAULT_TOL


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a replicated estimation experiment."""

    model: str
    hurst: float
    horizon: float
    sigma: float
    x0: float = 5.0
    theta0: float = 1.0
    steps: int = 20
    n_max: int = 50
    replications: int = 100
    seed: int = 0
    contraction: float = 0.5
    d_threshold: float = 0.0
    alpha: float = 0.05
    max_iters: Optional[int] = None
    tol: float = DEFAULT_TOL
    enforce_omega: bool = False
    corr_block: int = 1       # cluster size q; 1 means independent copies
    corr_rho: float = 0.0     # within-cluster correlation
    mode: str = "fbm"         # "fbm" (H > 1/2) | "bm" (H = 1/2)
    eval_points: Optional[tuple[int, ...]] = None  # N values to evaluate; default 1..n_max
    fresh_paths_per_n: bool = False  # resample per N instead of reusing prefixes

    def __post_init__(self):
        try:
            self.drift()
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        if not self.horizon > 0.0:
            raise ConfigError(f"T (horizon): must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not 0.0 < self.contraction < 1.0:
            raise ConfigError(f"contraction: must lie in (0, 1), got {self.contraction}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha: must lie in (0, 1), got {self.alpha}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError(f"max_iters: must be >= 1 or null, got {self.max_iters}")
        if not self.tol >= 0.0:
            raise ConfigError(f"tol: must be >= 0, got {self.tol}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.mode not in ("fbm", "bm"):
            raise ConfigError(f"mode must be 'fbm' or 'bm', got {self.mode!r}")
        if self.mode == "bm" and self.hurst != 0.5:
            raise ConfigError("mode 'bm' forces H = 1/2")
        if self.mode == "fbm" and not 0.5 < self.hurst < 1.0:
            raise ConfigError("mode 'fbm' requires H in (1/2, 1)")
        if self.eval_points is not None:
            pts = tuple(self.eval_points)
            if not pts or any(not 1 <= p <= self.n_max for p in pts) or list(pts) != sorted(set(pts)):
                raise ConfigError("eval_points must be strictly increasing values in 1..n_max")
        q = self.corr_block
        if q < 1:
            raise ConfigError(f"corr_block: must be >= 1, got {q}")
        # One bundle of n_max copies, or with fresh paths one bundle per eval point.
        for n in (self.points if self.fresh_paths_per_n else (self.n_max,)):
            if n % q:
                raise ConfigError(f"corr_block: {q} does not divide the bundle size {n}")
        if q > 1 and not -1.0 / (q - 1) < self.corr_rho <= 1.0:
            raise ConfigError(f"corr_rho: must lie in (-1/(corr_block - 1), 1] = "
                              f"({-1.0 / (q - 1):.17g}, 1] for corr_block={q}, got {self.corr_rho}")

    @property
    def points(self) -> tuple[int, ...]:
        return self.eval_points if self.eval_points is not None else tuple(range(1, self.n_max + 1))

    def grid(self) -> Grid:
        return Grid(horizon=self.horizon, steps=self.steps)

    def hurst_params(self) -> HurstParams:
        return HurstParams(h=self.hurst)

    def drift(self) -> DriftModel:
        return drift_model(self.model)


@dataclass
class TrialResult:
    """Per-trial estimate trajectory over the evaluated prefix sizes.

    Arrays are aligned with `ns`. Failed evaluations (degenerate statistics or
    divergent iteration) are recorded as NaN rather than aborting the trial.
    """

    trial_index: int
    ns: np.ndarray
    estimates: np.ndarray       # reported estimate (theta_tilde or theta_hat)
    truncated: np.ndarray       # Omega- and threshold-gated value
    aci_lower: np.ndarray
    aci_upper: np.ndarray
    omega: np.ndarray           # bool; always True in bm mode
    d_stats: np.ndarray
    r_n: np.ndarray             # NaN in bm mode
    residuals: np.ndarray       # NaN in bm mode

    def final_error(self, theta0: float) -> float:
        return abs(float(self.estimates[-1]) - theta0)

    def covers(self, theta0: float) -> bool:
        return bool(self.aci_lower[-1] <= theta0 <= self.aci_upper[-1])


@dataclass
class SummaryReport:
    mean_error: float
    std_error: float
    coverage: float
    seconds: float
    n_trials: int
    per_threshold: Optional[list[tuple[float, float]]] = None
    omega_failed: int = 0  # trials whose last eval point was evaluated off Omega_N

    def __post_init__(self):
        if not math.isnan(self.coverage) and not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")


def summarize(errors: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divisor R, not R - 1)."""
    if len(errors) == 0:
        raise ValueError("cannot summarize an empty error list")
    arr = np.asarray(errors, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0))


def trial_rng(config: ExperimentConfig, trial_index: int) -> np.random.Generator:
    """The generator of one trial, independent of how trials are scheduled."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(trial_index,))
    )


def simulate_bundle(config: ExperimentConfig, rng: np.random.Generator, n: int) -> PathBundle:
    """Euler solutions of n copies driven by one fBm draw from rng."""
    grid = config.grid()
    hurst = config.hurst_params()
    corr = block_correlation(n, config.corr_block, config.corr_rho)
    noise = sample_fbm_bundle(hurst, grid, corr, rng)
    spec = SdeSpec(x0=config.x0, theta0=config.theta0, sigma=config.sigma,
                   drift=config.drift(), hurst=hurst, grid=grid)
    return euler_additive(spec, noise)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """One deterministic trial: simulate once, estimate on each prefix size."""
    rng = trial_rng(config, trial_index)
    points = config.points
    k = len(points)
    nan = float("nan")
    est = np.full(k, nan)
    trunc = np.full(k, nan)
    lo = np.full(k, nan)
    hi = np.full(k, nan)
    omega = np.zeros(k, dtype=bool)
    d_stats = np.full(k, nan)
    r_n = np.full(k, nan)
    resid = np.full(k, nan)

    drift = config.drift()
    hurst = config.hurst_params()

    def _eval_fbm(cache: FbmEstimatorCache, n: int, idx: int) -> None:
        try:
            e = cache.estimate(
                n, c=config.contraction, d_threshold=config.d_threshold,
                alpha=config.alpha, enforce_omega=config.enforce_omega,
                max_iters=config.max_iters, tol=config.tol,
            )
        except (DegenerateStatisticsError, DivergenceError):
            return
        est[idx] = e.theta_tilde
        trunc[idx] = e.theta_tilde_cd
        lo[idx], hi[idx] = e.aci[0], e.aci[1]
        omega[idx] = e.omega_holds
        d_stats[idx] = e.d_n
        r_n[idx] = e.r_n
        resid[idx] = e.residual

    def _eval_bm(cache: BmEstimatorCache, n: int, idx: int) -> None:
        try:
            e = cache.estimate(n, d_threshold=config.d_threshold, alpha=config.alpha)
        except DegenerateStatisticsError:
            return
        est[idx] = e.theta_hat
        trunc[idx] = e.theta_hat_d
        if e.aci is not None:
            lo[idx], hi[idx] = e.aci[0], e.aci[1]
        omega[idx] = True
        d_stats[idx] = e.d_nn

    if config.mode == "fbm":
        make_cache = partial(FbmEstimatorCache, drift=drift, hurst=hurst, sigma=config.sigma)
        evaluate = _eval_fbm
    else:
        make_cache = partial(BmEstimatorCache, drift=drift, sigma=config.sigma)
        evaluate = _eval_bm

    shared = None  # with prefix reuse, one bundle of n_max copies serves every N
    if not config.fresh_paths_per_n:
        shared = make_cache(simulate_bundle(config, rng, config.n_max))
    for idx, n in enumerate(points):
        cache = shared if shared is not None else make_cache(simulate_bundle(config, rng, n))
        evaluate(cache, n, idx)

    return TrialResult(
        trial_index=trial_index, ns=np.asarray(points, dtype=int),
        estimates=est, truncated=trunc, aci_lower=lo, aci_upper=hi,
        omega=omega, d_stats=d_stats, r_n=r_n, residuals=resid,
    )


def default_workers() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this process,
    or None where there is none or no /proc to find it in."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                     if len(parts) == 6 and "openblas" in parts[5]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one OpenBLAS thread, restoring the count on exit.

    Processes forked inside the block inherit the setting, so each starts with
    no BLAS helper thread and a pool of k workers keeps k threads busy, not
    k times the core count. Where no OpenBLAS is found this does nothing;
    results are the same either way.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def run_trials(config: ExperimentConfig, workers: int = 1) -> list[TrialResult]:
    """All replications, aggregated in trial-index order regardless of workers."""
    indices = range(config.replications)
    if workers <= 1 or config.replications == 1:
        return [run_trial(config, i) for i in indices]
    workers = min(workers, config.replications)
    chunksize = math.ceil(config.replications / (4 * workers))
    with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves input order, so aggregation order is fixed.
        return list(pool.map(partial(run_trial, config), indices, chunksize=chunksize))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> tuple[SummaryReport, list[TrialResult]]:
    """Replicated experiment; summary of final (N = n_max eval point) errors."""
    start = time.perf_counter()
    trials = run_trials(config, workers)
    errors = [t.final_error(config.theta0) for t in trials]
    mean, std = summarize(errors)
    covered = [t.covers(config.theta0) for t in trials]
    coverage = float(np.mean(covered))
    omega_failed = sum(not t.omega[-1] for t in trials if not math.isnan(t.estimates[-1]))
    seconds = time.perf_counter() - start
    report = SummaryReport(mean_error=mean, std_error=std, coverage=coverage,
                           seconds=seconds, n_trials=len(trials), omega_failed=omega_failed)
    return report, trials


def threshold_sweep(
    config: ExperimentConfig,
    thresholds: Sequence[float],
    n_fixed: int,
    workers: int = 1,
) -> SummaryReport:
    """Mean error of the Omega- and D-threshold-truncated estimator versus the
    truncation level, reusing one set of simulated trials for every level."""
    if len(thresholds) == 0:
        raise ValueError("thresholds must be nonempty")
    if not 1 <= n_fixed <= config.n_max:
        raise ValueError("n_fixed must lie in 1..n_max")
    start = time.perf_counter()
    base = replace(config, eval_points=(n_fixed,), d_threshold=0.0)
    trials = run_trials(base, workers)
    theta0 = config.theta0
    # Omega-gated raw values and their D_N statistics at the fixed prefix size.
    gated = np.array([t.estimates[0] if t.omega[0] else 0.0 for t in trials])
    d_stats = np.array([t.d_stats[0] for t in trials])
    per_threshold = []
    for d in thresholds:
        vals = np.where(d_stats >= d, gated, 0.0)
        per_threshold.append((float(d), float(np.abs(vals - theta0).mean())))
    errors = [err for _, err in per_threshold]
    seconds = time.perf_counter() - start
    return SummaryReport(mean_error=float(np.mean(errors)), std_error=float(np.std(errors)),
                         coverage=float("nan"), seconds=seconds, n_trials=len(trials),
                         per_threshold=per_threshold)


def coverage_experiment(config: ExperimentConfig, workers: int = 1) -> SummaryReport:
    """Empirical fraction of replications whose interval at n_max contains theta0."""
    cfg = replace(config, eval_points=(config.n_max,))
    report, _ = run_experiment(cfg, workers)
    return report
