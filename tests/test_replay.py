"""The benchmark's traced replay (bench/tracing.py), on small configs.

A traced benchmark run rebuilds every trial of a CLI call from public calls,
`sample_fbm_bundle` -> `euler_additive` -> `{Fbm,Bm}EstimatorCache(...).estimate(n)`,
and fails unless that replay reproduces the call's summary.csv, and for
`experiment` its trajectories.csv, digit for digit. The same composition is
checked here, so that a change which would break the traced benchmark fails
these tests first.
"""

import math

import numpy as np
import pytest

from fpdrift import (BmEstimatorCache, CrossCorrelation, DegenerateStatisticsError,
                     DivergenceError, FbmEstimatorCache, SdeSpec, euler_additive, parse_config,
                     sample_fbm_bundle, summarize)
from fpdrift.cli import main


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def replay(e, points) -> list[tuple]:
    """(trial, N, estimate, aci_lower, aci_upper) of every trial, serially from
    public calls, NaN where the evaluation fails."""
    grid, hurst, drift = e.grid(), e.hurst_params(), e.drift()
    spec = SdeSpec(x0=e.x0, theta0=e.theta0, sigma=e.sigma, drift=drift, hurst=hurst, grid=grid)
    rows = []
    for i in range(e.replications):
        rng = np.random.default_rng(np.random.SeedSequence(e.seed, spawn_key=(i,)))
        noise = sample_fbm_bundle(hurst, grid, CrossCorrelation.identity(e.n_max), rng)
        paths = euler_additive(spec, noise)
        if e.mode == "fbm":
            cache = FbmEstimatorCache(paths, drift, hurst, e.sigma)
        else:
            cache = BmEstimatorCache(paths, drift, sigma=e.sigma)
        for n in points:
            row = (i, n, math.nan, math.nan, math.nan)
            try:
                if e.mode == "fbm":
                    est = cache.estimate(n, c=e.contraction, d_threshold=e.d_threshold,
                                         alpha=e.alpha, enforce_omega=e.enforce_omega,
                                         max_iters=e.max_iters, tol=e.tol)
                    row = (i, n, est.theta_tilde, est.aci[0], est.aci[1])
                else:
                    est = cache.estimate(n, d_threshold=e.d_threshold, alpha=e.alpha)
                    aci = est.aci or (math.nan, math.nan)
                    row = (i, n, est.theta_hat, aci[0], aci[1])
            except (DegenerateStatisticsError, DivergenceError):
                pass
            rows.append(row)
    return rows


# name -> (command, --set overrides, workers): the benchmark's three workloads
# in small, and bm on every prefix.
CONFIGS = {
    "fbm-prefix": ("experiment", ["model=model2", "H=0.7", "steps=20", "n_max=12",
                                  "replications=4"], 1),
    "fbm-fine-grid": ("coverage", ["model=model1", "H=0.9", "steps=120", "n_max=8",
                                   "replications=2"], 1),
    "bm-coverage-pool": ("coverage", ["model=model2", "mode=bm", "H=0.5", "steps=100",
                                      "n_max=40", "replications=9"], 2),
    "bm-prefix": ("experiment", ["model=model1", "mode=bm", "H=0.5", "steps=50", "n_max=7",
                                 "replications=5"], 2),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_reproduces_the_cli_files(tmp_path, name):
    command, sets, workers = CONFIGS[name]
    argv = [command, *(arg for item in sets for arg in ("--set", item)), "--seed", "3"]
    assert main([*argv, "--workers", str(workers), "--out", str(tmp_path)]) == 0
    e = parse_config(overrides=sets, seed=3).experiment
    rows = replay(e, e.points if command == "experiment" else (e.n_max,))
    final = {trial: (est, lo, hi) for trial, _, est, lo, hi in rows}
    mean, std = summarize([abs(est - e.theta0) for est, _, _ in final.values()])
    coverage = sum(bool(lo <= e.theta0 <= hi) for _, lo, hi in final.values()) / len(final)
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[4:7] == [fmt(mean), fmt(std), fmt(coverage)]
    if command == "experiment":
        written = (tmp_path / "trajectories.csv").read_text().splitlines()[1:]
        assert written == [f"{t},{n},{fmt(est)},{fmt(lo)},{fmt(hi)}"
                           for t, n, est, lo, hi in rows]
