"""Replicated-experiment engine: trial orchestration, reproducible seeding,
summaries, threshold sweeps and coverage studies.

Each trial draws one noise bundle of n_max copies from a seed derived as
SeedSequence(master_seed, spawn_key=(trial_index,)), simulates the solutions
once, and evaluates the estimator on path prefixes 1..N. This prefix reuse
makes the per-trial trajectory N -> estimate a function of a single simulation,
and keeps every trial deterministic in (config, trial_index) regardless of how
trials are scheduled across workers. A chunk of consecutive trials is sampled,
simulated and solved as arrays, one gemm per trial, which changes no trial's numbers.

A run on K workers cuts the trials into K consecutive shares. The calling
process forks K - 1 children with os.fork, one per share after the first, runs
the first share itself and reads each child's pickled result array from a pipe,
all with one OpenBLAS thread; no executor or multiprocessing machinery is involved.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from functools import cache
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateStatisticsError, DivergenceError
from .fbm import Grid, HurstParams, PathBundle, block_correlation, sample_fbm_bundles
from .sde import DriftModel, SdeSpec, drift_model, euler_additive
from .estimators import (DEFAULT_TOL, BmEstimatorCache, EstimateBM, EstimateFBM,
                         FbmEstimatorCache)


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
        # The statistics scale with sigma^2 and T^-2: both squares must be nonzero floats.
        if not (self.horizon > 0.0 and self.horizon * self.horizon > 0.0):
            raise ConfigError(f"T (horizon): must be positive with T^2 > 0, got {self.horizon}")
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise ConfigError(f"sigma: sigma^2 must be a nonzero finite float, got {self.sigma}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not 0.0 < self.contraction < 1.0:
            raise ConfigError(f"contraction: must lie in (0, 1), got {self.contraction}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha: must lie in (0, 1), got {self.alpha}")
        if 1.0 - self.alpha / 4.0 == 1.0:  # the interval's normal quantile level
            raise ConfigError(f"alpha: {self.alpha} is too small; 1 - alpha/4 rounds to 1")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
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


# What a run keeps of each (trial, N) solve row: the fields that FBM_ROW and BM_ROW
# share, packed. A row is NaN where its evaluation failed (degenerate statistics or
# divergent iteration); its omega is always True in bm mode.
RESULT_ROW = np.dtype([("estimate", float), ("aci_lower", float), ("aci_upper", float),
                       ("omega", bool), ("d_n", float)])


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


def simulate_bundles(config: ExperimentConfig, rngs: Sequence[np.random.Generator],
                     sizes: Sequence[int]) -> PathBundle:
    """One bundle of Euler solutions, size by size: rows t*n..(t+1)*n - 1 of the block
    of size n are the bits `simulate_bundle(config, rngs[t], n)` would give next."""
    grid, hurst = config.grid(), config.hurst_params()
    corrs = [block_correlation(n, config.corr_block, config.corr_rho) for n in sizes]
    noise = sample_fbm_bundles(hurst, grid, corrs, rngs)
    spec = SdeSpec(x0=config.x0, theta0=config.theta0, sigma=config.sigma,
                   drift=config.drift(), hurst=hurst, grid=grid)
    return euler_additive(spec, noise)


def simulate_bundle(config: ExperimentConfig, rng: np.random.Generator, n: int) -> PathBundle:
    """Euler solutions of n copies driven by one fBm draw from rng."""
    return simulate_bundles(config, (rng,), (n,))


def estimator_cache(config: ExperimentConfig,
                    bundle: PathBundle) -> FbmEstimatorCache | BmEstimatorCache:
    """The estimator cache of a solution bundle for the config's mode."""
    if config.mode == "fbm":
        return FbmEstimatorCache(bundle, config.drift(), config.hurst_params(), config.sigma)
    return BmEstimatorCache(bundle, config.drift(), sigma=config.sigma)


def _settings(config: ExperimentConfig) -> dict:
    """The config's estimate settings, as keywords of its mode's cache."""
    if config.mode == "fbm":
        return dict(c=config.contraction, d_threshold=config.d_threshold, alpha=config.alpha,
                    enforce_omega=config.enforce_omega, max_iters=config.max_iters,
                    tol=config.tol)
    return dict(d_threshold=config.d_threshold, alpha=config.alpha)


def estimate(config: ExperimentConfig, cache: FbmEstimatorCache | BmEstimatorCache,
             n: Optional[int] = None) -> EstimateFBM | EstimateBM:
    """The estimate on the first n paths of the cache (default: all of them),
    with the config's settings."""
    return cache.estimate(n, **_settings(config))


def _run_chunk(config: ExperimentConfig, indices: range) -> np.ndarray:
    """Consecutive deterministic trials, each drawn from its own rng, simulated in
    one bundle and solved together: one `solve` call per bundle size. Returns the
    solve rows, shape (len(indices), len(config.points))."""
    points, fresh = config.points, config.fresh_paths_per_n
    # One bundle per trial serves every eval point (all n_max paths are drawn, so the
    # rng stream does not depend on them), or with fresh paths one bundle per point.
    sizes = [(n,) for n in points] if fresh else [points]
    lengths = [ns[-1] if fresh else config.n_max for ns in sizes]
    paths = simulate_bundles(config, [trial_rng(config, i) for i in indices], lengths)
    # Each trial's bundle is m rows of its size's block; its cache takes the first ns[-1].
    starts = (np.cumsum([0, *lengths]) * len(indices)).tolist()
    groups = [[estimator_cache(config, replace(paths, values=paths.values[a:a + ns[-1]]))
               for a in range(start, stop, m)]
              for ns, m, start, stop in zip(sizes, lengths, starts, starts[1:])]
    # No output reads the residual |Phi_N(R_N) - R_N|, so its Phi_N sweep is skipped.
    settings = _settings(config) | (dict(residual=False) if config.mode == "fbm" else {})
    return np.concatenate([type(group[0]).solve(group, ns, **settings)
                           for group, ns in zip(groups, sizes)], axis=1)


def run_trial(config: ExperimentConfig, trial_index: int) -> np.ndarray:
    """One deterministic trial, the chunk of one: its solve row of each eval point."""
    return _run_chunk(config, range(trial_index, trial_index + 1))[0]


def default_workers() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this process,
    or None where there is none or no /proc to find it in. Memoized, as the
    library mapped into a process does not change."""
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


# glibc's mallopt parameters and the values pinned for them: the largest that its
# dynamic thresholds reach (once a process frees a 32 MiB block), so that chunks
# reuse the heap their predecessors freed rather than fault it in afresh.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 64 << 20, 32 << 20


@cache
def _pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds at their dynamic maxima, once per
    process; True where they were set. Elsewhere (musl, macOS, no libc to
    load) this does nothing. It changes when freed memory is reused, not any
    result; the cost is up to 64 MiB of freed heap kept after a peak."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return False
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)])


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


# Path nodes a chunk of trials may simulate, n_max * (steps + 1) per trial (the
# sum over the eval points with fresh paths): enough trials to pay numpy's fixed
# costs once per chunk, few enough that the chunk's caches stay small.
_CHUNK_NODES = 2**17


def _run_share(config: ExperimentConfig, share: range, size: int, out: np.ndarray) -> None:
    """Fill out with the `RESULT_ROW`s of a share's trials, run in the fewest chunks
    of at most size consecutive trials, whose lengths differ by at most one."""
    count = -(-len(share) // size)
    bounds = [k * len(share) // count for k in range(count + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        rows = _run_chunk(config, range(share.start + start, share.start + stop))
        out[start:stop] = rows[list(RESULT_ROW.names)]


def _fork_share(config: ExperimentConfig, share: range, size: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs a share and pickles (True, its result array) or
    (False, exception) into a pipe; return its pid and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        # Closed before the next fork, so that no later child holds this write
        # end and the pipe ends when this child does.
        os.close(write)
        return pid, os.fdopen(read, "rb")
    # The child never returns into the caller's code, and ending in os._exit it
    # never flushes the stdio buffers it shares with the parent.
    status = 1
    try:
        os.close(read)
        try:
            trials = np.empty((len(share), len(config.points)), RESULT_ROW)
            _run_share(config, share, size, trials)
            outcome = (True, trials)
        except Exception as exc:
            outcome = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _share_result(children: dict[int, BinaryIO], pid: int, share: range) -> np.ndarray:
    """The result array of a forked share, once its child has ended and been reaped;
    raises the share's first failure, or an error naming an abnormal end."""
    with children[pid] as pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del children[pid]
    if status:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"the worker process running trials {share.start}.."
                                f"{share.stop - 1} ended with wait status {status} ({how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def run_trials(config: ExperimentConfig, workers: int = 1) -> np.ndarray:
    """All replications: one `RESULT_ROW` array, shape (replications, len(points)),
    allocated once and filled in trial-index order regardless of workers.

    The trials are cut into `workers` consecutive shares of near-equal size.
    The parent forks one child per share after the first, runs the first share
    itself, then copies the children's arrays into their slices in order, so the
    error raised is the one a serial run raises. Chunks of consecutive trials are
    the unit of work within a share. Where os.fork does not exist, every run is serial.
    """
    reps = config.replications
    try:
        trials = np.empty((reps, len(config.points)), RESULT_ROW)
    except MemoryError as exc:
        raise MemoryError(f"replications: out of memory for the results of {reps} "
                          f"trials ({exc})") from exc
    workers = max(1, min(workers, reps)) if hasattr(os, "fork") else 1
    nodes = sum(config.points if config.fresh_paths_per_n else (config.n_max,))
    size = max(1, _CHUNK_NODES // (nodes * (config.steps + 1)))
    bounds = [k * reps // workers for k in range(workers + 1)]
    shares = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    # Forked children inherit the parent's modules and malloc settings: importing
    # numpy.random and pinning the thresholds once here spares each of them both.
    import numpy.random  # noqa: F401
    _pin_malloc_thresholds()
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext():
        try:
            for share in shares[1:]:
                pid, pipe = _fork_share(config, share, size)
                children[pid] = pipe
            _run_share(config, shares[0], size, trials[:len(shares[0])])
            for pid, share in zip(list(children), shares[1:]):
                trials[share.start:share.stop] = _share_result(children, pid, share)
            return trials
        finally:
            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> tuple[SummaryReport, np.ndarray]:
    """Replicated experiment: the summary of final (last eval point) errors, and the trials.

    Raises DegenerateStatisticsError or DivergenceError where a trial has no
    final estimate, or where the errors' mean or spread leaves the float range,
    rather than report a NaN or infinite summary."""
    start = time.perf_counter()
    trials = run_trials(config, workers)
    final, theta0 = trials[:, -1], config.theta0
    with np.errstate(over="ignore"):  # an infinite error is refused below
        errors = np.abs(final["estimate"] - theta0)
    failed = np.flatnonzero(np.isnan(errors))
    if failed.size:
        vanished = np.count_nonzero(~(final["d_n"][failed] > 0.0))
        raise (DegenerateStatisticsError if vanished else DivergenceError)(
            f"the estimate at N = {config.points[-1]} is undefined in {failed.size} of "
            f"{len(trials)} trials (D_N <= 0 in {vanished}, a non-finite statistic or "
            f"iterate in {failed.size - vanished}); the summary would be NaN")
    with np.errstate(all="ignore"):
        mean, std = summarize(errors)
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DivergenceError(f"the estimation errors |theta - theta0| leave the float "
                              f"range (theta0 = {theta0})")
    coverage = float(np.mean((final["aci_lower"] <= theta0) & (theta0 <= final["aci_upper"])))
    omega_failed = int((~final["omega"]).sum())
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
    rows = run_trials(base, workers)[:, 0]
    theta0 = config.theta0
    # Omega-gated raw values and their D_N statistics at the fixed prefix size.
    gated, d_stats = np.where(rows["omega"], rows["estimate"], 0.0), rows["d_n"]
    per_threshold = []
    for d in thresholds:
        vals = np.where(d_stats >= d, gated, 0.0)
        per_threshold.append((float(d), float(np.abs(vals - theta0).mean())))
    errors = [err for _, err in per_threshold]
    seconds = time.perf_counter() - start
    return SummaryReport(mean_error=float(np.mean(errors)), std_error=float(np.std(errors)),
                         coverage=float("nan"), seconds=seconds, n_trials=len(rows),
                         per_threshold=per_threshold)


def coverage_experiment(config: ExperimentConfig, workers: int = 1) -> SummaryReport:
    """Empirical fraction of replications whose interval at n_max contains theta0."""
    cfg = replace(config, eval_points=(config.n_max,))
    report, _ = run_experiment(cfg, workers)
    return report
