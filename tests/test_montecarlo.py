import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpdrift import (
    ExperimentConfig,
    FbmEstimatorCache,
    coverage_experiment,
    run_experiment,
    run_trial,
    run_trials,
    summarize,
    threshold_sweep,
)
from fpdrift import montecarlo
from fpdrift.errors import ConfigError
from tests.conftest import model2_config


def test_config_validation():
    with pytest.raises(ConfigError):
        model2_config(replications=0)
    with pytest.raises(ConfigError):
        model2_config(n_max=0)
    with pytest.raises(ConfigError):
        model2_config(mode="bm")  # H = 0.9 incompatible
    with pytest.raises(ConfigError):
        model2_config(hurst=0.5)  # fbm mode needs H > 1/2
    with pytest.raises(ConfigError):
        model2_config(eval_points=(0, 5))
    with pytest.raises(ConfigError):
        model2_config(eval_points=(5, 5))
    cfg = model2_config(eval_points=(2, 7))
    assert cfg.points == (2, 7)
    assert model2_config().points == tuple(range(1, 11))


def test_trial_determinism():
    cfg = model2_config()
    a = run_trial(cfg, 3)
    b = run_trial(cfg, 3)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.aci_lower, b.aci_lower)
    assert np.array_equal(a.d_stats, b.d_stats)
    c = run_trial(cfg, 4)
    assert not np.array_equal(a.estimates, c.estimates)


def test_trial_shapes_and_errors():
    cfg = model2_config(n_max=7)
    t = run_trial(cfg, 0)
    assert t.ns.tolist() == list(range(1, 8))
    assert t.estimates.shape == (7,)
    assert t.final_error(cfg.theta0) >= 0.0
    assert np.isfinite(t.estimates).all()
    assert t.omega.all()


def test_constant_drift_trajectory_is_identity_statistic():
    # b constant: the correction term vanishes and each prefix estimate is I_N.
    cfg = model2_config(model="custom:2", n_max=3, replications=1)
    t = run_trial(cfg, 0)
    assert np.isfinite(t.estimates).all()
    assert np.all(t.r_n == 0.0)


def test_largest_eval_point_below_n_max_builds_no_taylor_table(monkeypatch):
    # The shared cache holds only the largest evaluated prefix, so its one
    # eval point is its full bundle, served by the exact sum.
    cfg = model2_config(eval_points=(5,), n_max=10, replications=1)
    paths = montecarlo.simulate_bundle(cfg, montecarlo.trial_rng(cfg, 0), 10)
    want = FbmEstimatorCache(replace(paths, values=paths.values[:5]), cfg.drift(),
                             cfg.hurst_params(), cfg.sigma).estimate()
    monkeypatch.setattr(FbmEstimatorCache, "_taylor",
                        property(lambda self: pytest.fail("the Taylor table was built")))
    t = run_trial(cfg, 0)
    assert t.ns.tolist() == [5]
    assert t.estimates[0] == want.theta_tilde
    assert (t.aci_lower[0], t.aci_upper[0]) == want.aci[:2]
    assert (t.d_stats[0], t.r_n[0], t.residuals[0]) == (want.d_n, want.r_n, want.residual)
    assert t.omega[0] == want.omega_holds


# (11, 2) leaves a partial last chunk; (3, 5) has more workers than trials.
@pytest.mark.parametrize("replications,workers", [(4, 3), (11, 2), (3, 5)])
def test_workers_do_not_change_results(replications, workers):
    cfg = model2_config(replications=replications)
    serial = run_trials(cfg, workers=1)
    parallel = run_trials(cfg, workers=workers)
    assert len(parallel) == replications
    for a, b in zip(serial, parallel):
        assert a.trial_index == b.trial_index
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.aci_upper, b.aci_upper)


def _worker_threads(_):
    a = np.ones((200, 200))
    a @ a
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_run_one_blas_thread():
    api = montecarlo._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS mapped into this process")
    get = api[0]
    before = get()
    fork = multiprocessing.get_context("fork")
    with montecarlo._one_blas_thread():
        assert get() == 1
        with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
            assert list(pool.map(_worker_threads, range(2))) == [1, 1]
    assert get() == before


def test_pooled_run_imports_numpy_random_before_forking():
    # Workers inherit numpy.random from the parent instead of importing it each.
    code = ("import sys\n"
            "from fpdrift import ExperimentConfig, run_trials\n"
            "cfg = ExperimentConfig(model='model2', hurst=0.9, horizon=0.75, sigma=1.0,\n"
            "                       replications=2, n_max=3)\n"
            "assert 'numpy.random' not in sys.modules\n"
            "run_trials(cfg, workers=2)\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "True"


def test_run_experiment_single_replication():
    cfg = model2_config(replications=1)
    report, trials = run_experiment(cfg)
    assert len(trials) == 1
    assert report.mean_error == trials[0].final_error(cfg.theta0)
    assert report.std_error == 0.0
    assert report.coverage in (0.0, 1.0)


def test_summarize_conventions():
    assert summarize([0.5]) == (0.5, 0.0)
    mean, std = summarize([1.0, 3.0])
    assert (mean, std) == (2.0, 1.0)  # population std, divisor R
    with pytest.raises(ValueError):
        summarize([])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=100))
def test_summarize_order_invariant(values):
    mean_a, std_a = summarize(values)
    mean_b, std_b = summarize(list(reversed(values)))
    assert mean_a == pytest.approx(mean_b, abs=1e-12)
    assert std_a == pytest.approx(std_b, abs=1e-12)


def test_threshold_sweep_endpoints():
    cfg = model2_config(replications=10, n_max=8)
    report = threshold_sweep(cfg, [0.0, 1e9], n_fixed=8)
    assert len(report.per_threshold) == 2
    d0, err0 = report.per_threshold[0]
    dbig, errbig = report.per_threshold[1]
    # d = 0: indicator always 1, the Omega-gated error itself.
    trials = run_trials(model2_config(replications=10, n_max=8,
                                      eval_points=(8,)), workers=1)
    gated = [t.estimates[0] if t.omega[0] else 0.0 for t in trials]
    expect = float(np.mean([abs(g - cfg.theta0) for g in gated]))
    assert err0 == pytest.approx(expect, rel=1e-12)
    # d beyond every observed D_N: estimator collapses to 0, error = |theta0|.
    assert errbig == pytest.approx(abs(cfg.theta0))


def test_threshold_sweep_validation():
    cfg = model2_config()
    with pytest.raises(ValueError):
        threshold_sweep(cfg, [], n_fixed=5)
    with pytest.raises(ValueError):
        threshold_sweep(cfg, [0.1], n_fixed=99)


def test_coverage_degenerate_alpha():
    # A nearly-1 confidence level gives a huge interval: coverage = 1.
    cfg = model2_config(replications=5, alpha=1e-9)
    report = coverage_experiment(cfg)
    assert report.coverage == 1.0


def test_coverage_between_zero_and_one():
    report = coverage_experiment(model2_config(replications=6))
    assert 0.0 <= report.coverage <= 1.0


def test_bm_mode_runs():
    cfg = ExperimentConfig(model="model2", hurst=0.5, horizon=0.75, sigma=1.0,
                           mode="bm", n_max=20, steps=50, replications=4, seed=5)
    report, trials = run_experiment(cfg)
    assert math.isfinite(report.mean_error)
    assert report.mean_error < 1.0
    for t in trials:
        assert t.omega.all()
        assert np.isnan(t.r_n).all()


def test_fresh_paths_mode_differs_but_converges():
    cfg = model2_config(fresh_paths_per_n=True, replications=2)
    t = run_trial(cfg, 0)
    t_reuse = run_trial(model2_config(replications=2), 0)
    assert np.isfinite(t.estimates).all()
    assert not np.array_equal(t.estimates, t_reuse.estimates)
    # Both sampling conventions give the same prefix-1 value: the first bundle
    # drawn from the trial RNG starts with the same single path.
    assert t.estimates[0] == pytest.approx(t_reuse.estimates[0])


def test_block_correlation_config():
    cfg = model2_config(n_max=10, corr_block=5, corr_rho=0.8, replications=2)
    t = run_trial(cfg, 0)
    assert np.isfinite(t.estimates[-1])


def test_dependence_degrades_rate():
    # One fully dependent cluster: adding copies brings no new information, so
    # the error at N = 50 does not shrink below the N = 10 level.
    cfg = model2_config(n_max=50, replications=40, seed=8,
                        corr_block=50, corr_rho=0.9, eval_points=(10, 50))
    trials = run_trials(cfg, workers=1)
    errs = np.abs(np.array([t.estimates for t in trials]) - cfg.theta0)
    assert errs[:, 1].mean() > 0.5 * errs[:, 0].mean()


@settings(max_examples=10, deadline=None)
@given(perm_seed=st.integers(0, 1000))
def test_trial_permutation_invariance(perm_seed):
    # Values attached to a trial index do not depend on evaluation order.
    cfg = model2_config(replications=4, n_max=4)
    order = np.random.default_rng(perm_seed).permutation(4)
    shuffled = {int(i): run_trial(cfg, int(i)) for i in order}
    straight = {i: run_trial(cfg, i) for i in range(4)}
    for i in range(4):
        assert np.array_equal(shuffled[i].estimates, straight[i].estimates)
