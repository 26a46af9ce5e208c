import ctypes
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
from fpdrift import estimators, montecarlo
from fpdrift.errors import ConfigError, DegenerateStatisticsError, DivergenceError
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
    assert np.array_equal(a["estimate"], b["estimate"])
    assert np.array_equal(a["aci_lower"], b["aci_lower"])
    assert np.array_equal(a["d_n"], b["d_n"])
    c = run_trial(cfg, 4)
    assert not np.array_equal(a["estimate"], c["estimate"])


def test_trial_shapes_and_errors():
    cfg = model2_config(n_max=7)
    t = run_trial(cfg, 0)
    assert t.shape == (7,) and t.dtype == estimators.FBM_ROW
    assert np.isfinite(t["estimate"]).all()
    assert t["omega"].all()


def test_constant_drift_trajectory_is_identity_statistic():
    # b constant: the correction term vanishes and each prefix estimate is I_N.
    cfg = model2_config(model="custom:2", n_max=3, replications=1)
    t = run_trial(cfg, 0)
    assert np.isfinite(t["estimate"]).all()
    assert np.all(t["r_n"] == 0.0)


def test_largest_eval_point_below_n_max_matches_the_truncated_bundle():
    # The shared cache holds only the largest evaluated prefix, so its one
    # eval point is its full bundle.
    cfg = model2_config(eval_points=(5,), n_max=10, replications=1)
    paths = montecarlo.simulate_bundle(cfg, montecarlo.trial_rng(cfg, 0), 10)
    want = FbmEstimatorCache(replace(paths, values=paths.values[:5]), cfg.drift(),
                             cfg.hurst_params(), cfg.sigma).estimate()
    t = run_trial(cfg, 0)
    assert t.shape == (1,)
    assert t["estimate"][0] == want.theta_tilde
    assert (t["aci_lower"][0], t["aci_upper"][0]) == want.aci[:2]
    assert (t["d_n"][0], t["r_n"][0]) == (want.d_n, want.r_n)
    assert t["omega"][0] == want.omega_holds


def test_trial_solve_skips_the_residual_sweep(monkeypatch):
    # Every Phi_N value of these chunks is an exact sum: one call per Picard step
    # of the chunk, and none more for the residual |Phi_N(R_N) - R_N| that no
    # output reads. (settings, trials, the sum called): one trial's full bundle
    # and model2 over every prefix, where every cache sums the lags; model1's full
    # bundles, where every cache keeps all its rows.
    calls = []

    def counted(name):
        real = getattr(estimators, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for settings, trials, name in (
            (dict(eval_points=(5,)), 1, "_phi_lags"), (dict(), 4, "_phi_lags"),
            (dict(model="model1", hurst=0.7, horizon=0.1, sigma=0.25, eval_points=(10,)), 4,
             "_phi_factorized")):
        cfg = model2_config(n_max=10, replications=trials, **settings)
        bundles = [montecarlo.simulate_bundle(cfg, montecarlo.trial_rng(cfg, i), 10)
                   for i in range(trials)]
        want = np.stack([FbmEstimatorCache(
            replace(paths, values=paths.values[:cfg.points[-1]]), cfg.drift(),
            cfg.hurst_params(), cfg.sigma).estimates(cfg.points) for paths in bundles])
        for sum_name in ("_phi_lags", "_phi_factorized", "_phi_rows"):
            monkeypatch.setattr(estimators, sum_name, counted(sum_name))
        calls.clear()
        rows = montecarlo._run_chunk(cfg, range(trials))
        monkeypatch.undo()
        for field in ("r_n", "iterations"):
            assert rows[field].tobytes() == want[field].tobytes()
        assert np.isnan(rows["residual"]).all()
        steps = int(want["iterations"].max())
        assert steps > 1 and calls == [name] * steps


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked by this process, in fork order."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (11, 2) leaves shares of 5 and 6; (3, 5) has more workers than trials.
@pytest.mark.parametrize("replications,workers", [(4, 3), (11, 2), (3, 5)])
def test_workers_do_not_change_results(forks, replications, workers):
    cfg = model2_config(replications=replications)
    serial = run_trials(cfg, workers=1)
    assert forks == []
    parallel = run_trials(cfg, workers=workers)
    assert len(forks) == min(workers, replications) - 1
    assert parallel.shape == serial.shape == (replications, len(cfg.points))
    assert parallel.tobytes() == serial.tobytes()
    assert_no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_run_one_blas_thread(monkeypatch, forks):
    api = montecarlo._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS mapped into this process")
    get = api[0]
    before, parent = get(), os.getpid()
    real = montecarlo._run_chunk

    def chunk(config, indices):
        a = np.ones((200, 200))
        a @ a
        tasks = len(os.listdir("/proc/self/task"))
        rows = real(config, indices)
        rows["d_n"][:, :3] = [os.getpid(), tasks, get()]
        return rows

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
    trials = run_trials(model2_config(replications=6), workers=3)
    assert get() == before
    seen = {tuple(map(int, d_n[:3])) for d_n in trials["d_n"]}
    assert len(forks) == 2
    assert {pid for pid, _, _ in seen} == {parent, *forks}
    # One thread and one BLAS thread in the parent's share and in every child.
    assert {(tasks, blas) for _, tasks, blas in seen} == {(1, 1)}
    assert_no_child_left()


def _fail_at(monkeypatch, error, bad):
    real = montecarlo._run_chunk

    def chunk(config, indices):
        for i in indices:
            if i in bad:
                raise error(f"trial {i} failed")
        return real(config, indices)

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)


# Shares of 11 trials: 5, 6 on two workers; 3, 4, 4 on three.
@pytest.mark.parametrize("error", [DivergenceError, MemoryError])
@pytest.mark.parametrize("workers,bad", [(2, {7, 9}), (3, {5, 8}), (3, {1, 8})])
def test_pooled_run_raises_the_serial_runs_error(monkeypatch, forks, error, workers, bad):
    _fail_at(monkeypatch, error, bad)
    cfg = model2_config(replications=11)
    with pytest.raises(error) as serial:
        run_trials(cfg, workers=1)
    with pytest.raises(error) as pooled:
        run_trials(cfg, workers=workers)
    assert str(pooled.value) == str(serial.value) == f"trial {min(bad)} failed"
    assert len(forks) == workers - 1
    assert_no_child_left()


def test_killed_child_is_named_by_its_wait_status(monkeypatch, forks):
    parent, real = os.getpid(), montecarlo._run_chunk

    def chunk(config, indices):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config, indices)

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
    with pytest.raises(ChildProcessError, match=r"trials 3\.\.5 ended with wait status 9 "
                                                r"\(killed by signal 9\)"):
        run_trials(model2_config(replications=6), workers=2)
    assert len(forks) == 1
    assert_no_child_left()


def test_failure_in_the_parents_share_kills_the_children(monkeypatch, forks):
    parent = os.getpid()

    def chunk(config, indices):
        if os.getpid() == parent:
            raise ValueError("the parent's share failed")
        time.sleep(30)  # a child left alive would hold run_trials up this long

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the parent's share failed"):
        run_trials(model2_config(replications=6), workers=3)
    assert time.monotonic() - start < 15
    assert len(forks) == 2
    assert_no_child_left()


def test_pooled_run_imports_numpy_random_before_forking():
    # Children inherit numpy.random from the parent instead of importing it each;
    # forking them takes no pool machinery.
    code = ("import sys\n"
            "from fpdrift import ExperimentConfig, run_trials\n"
            "cfg = ExperimentConfig(model='model2', hurst=0.9, horizon=0.75, sigma=1.0,\n"
            "                       replications=2, n_max=3)\n"
            "assert 'numpy.random' not in sys.modules\n"
            "run_trials(cfg, workers=2)\n"
            "print('numpy.random' in sys.modules, sorted(m for m in ('concurrent.futures',\n"
            "      'multiprocessing') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "True []"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_repeated_serial_run_faults_in_no_fresh_heap():
    # A second run at bm-coverage-pool settings reuses the heap the first one
    # freed; with glibc's dynamic thresholds each chunk faulted it in again.
    code = ("import resource\n"
            "from fpdrift import ExperimentConfig, run_trials\n"
            "cfg = ExperimentConfig(model='model2', mode='bm', hurst=0.5, horizon=0.75,\n"
            "                       sigma=1.0, steps=100, n_max=200, replications=50,\n"
            "                       eval_points=(200,))\n"
            "run_trials(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_trials(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 200


@pytest.fixture
def fresh_malloc_pin():
    """A cleared memo of the malloc-threshold setter, cleared again afterwards."""
    montecarlo._pin_malloc_thresholds.cache_clear()
    yield montecarlo._pin_malloc_thresholds
    montecarlo._pin_malloc_thresholds.cache_clear()


def test_malloc_thresholds_are_pinned_once_per_process(monkeypatch, fresh_malloc_pin):
    real, loads = ctypes.CDLL, []

    def cdll(name, *args, **kwargs):
        loads.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    run_trials(model2_config(replications=2))
    run_trials(model2_config(replications=2))
    assert loads == [None]  # loaded by the first run only
    assert fresh_malloc_pin() is (platform.libc_ver()[0] == "glibc")
    assert loads == [None]


def _no_libc(name):
    raise OSError("no libc to load")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(mallopt=None), _no_libc],
                         ids=["libc-without-gnu_get_libc_version", "no-libc"])
def test_malloc_thresholds_are_left_alone_without_glibc(monkeypatch, fresh_malloc_pin, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)  # mallopt=None would fail if called
    assert fresh_malloc_pin() is False
    assert len(run_trials(model2_config(replications=2))) == 2


def test_run_experiment_single_replication():
    cfg = model2_config(replications=1)
    report, trials = run_experiment(cfg)
    assert trials.shape == (1, len(cfg.points))
    assert report.mean_error == abs(trials[0, -1]["estimate"] - cfg.theta0)
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
    curve, omega_failed = threshold_sweep(cfg, [0.0, 1e9], n_fixed=8)
    assert len(curve) == 2
    d0, err0 = curve[0]
    dbig, errbig = curve[1]
    # d = 0: indicator always 1, the Omega-gated error itself.
    trials = run_trials(model2_config(replications=10, n_max=8,
                                      eval_points=(8,)), workers=1)
    gated = [t["estimate"][0] if t["omega"][0] else 0.0 for t in trials]
    expect = float(np.mean([abs(g - cfg.theta0) for g in gated]))
    assert omega_failed == (~trials["omega"]).sum()
    assert err0 == pytest.approx(expect, rel=1e-12)
    # d beyond every observed D_N: estimator collapses to 0, error = |theta0|.
    assert errbig == pytest.approx(abs(cfg.theta0))


@pytest.mark.parametrize("mode", ["fbm", "bm"])
def test_sweep_d_gate_is_the_truncated_estimate_of_solve(mode):
    # The sweep's D gate, at 0 and between observed D_N values, against the
    # truncated estimate of `solve` at each threshold, with Omega_N enforced (in
    # fbm mode it fails in 1 of these 10 trials), bit for bit.
    cfg = ExperimentConfig(model="model2", hurst=0.7 if mode == "fbm" else 0.5, horizon=2.5,
                           sigma=1.0, n_max=20, replications=10, seed=0, mode=mode)
    final = run_trials(replace(cfg, eval_points=(20,)))[:, 0]
    # A failed row would make the sweep raise: these have none.
    assert np.isfinite(final["estimate"]).all()
    assert (~final["omega"]).sum() == (1 if mode == "fbm" else 0)
    d_n = np.sort(final["d_n"])
    thresholds = [0.0, *((d_n[:-1] + d_n[1:]) / 2)[::3].tolist()]
    curve, omega_failed = threshold_sweep(cfg, thresholds, n_fixed=20)
    assert [d for d, _ in curve] == thresholds and omega_failed == (~final["omega"]).sum()
    for d, err in curve:
        rows = [run_trial(replace(cfg, eval_points=(20,), d_threshold=d, enforce_omega=True),
                          i)[0] for i in range(cfg.replications)]
        assert err == np.abs(np.array([row["estimate"] for row in rows]) - cfg.theta0).mean()


@pytest.mark.parametrize("mode", ["fbm", "bm"])
def test_sweep_truncates_a_vanished_d_n_above_threshold_0(mode):
    # b = 0: D_N = 0 in every trial, where no estimate is defined. The truncated
    # estimate 1{D_N >= d} theta is 0 at every threshold d > 0, and undefined at 0.
    cfg = ExperimentConfig(model="custom:0", hurst=0.7 if mode == "fbm" else 0.5, mode=mode,
                           horizon=1.0, sigma=1.0, n_max=5, replications=4, seed=0)
    # Omega_N is not certified where D_N = 0; bm mode needs no certificate.
    assert threshold_sweep(cfg, [0.5, 2.0], n_fixed=5) == (
        [(0.5, 1.0), (2.0, 1.0)], 4 if mode == "fbm" else 0)
    with pytest.raises(DegenerateStatisticsError,
                       match=r"at N = 3 is undefined in 4 of 4 trials \(D_N <= 0 in 4, "):
        threshold_sweep(cfg, [0.5, 0.0], n_fixed=3)


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
    assert trials.dtype == montecarlo.RESULT_ROW and trials["omega"].all()
    # No fixed point is solved: the bm rows hold no R_N.
    assert run_trial(cfg, 0).dtype == estimators.BM_ROW


def test_fresh_paths_mode_differs_but_converges():
    cfg = model2_config(fresh_paths_per_n=True, replications=2)
    t = run_trial(cfg, 0)
    t_reuse = run_trial(model2_config(replications=2), 0)
    assert np.isfinite(t["estimate"]).all()
    assert not np.array_equal(t["estimate"], t_reuse["estimate"])
    # Both sampling conventions give the same prefix-1 value: the first bundle
    # drawn from the trial RNG starts with the same single path.
    assert t["estimate"][0] == pytest.approx(t_reuse["estimate"][0])


def test_block_correlation_config():
    cfg = model2_config(n_max=10, corr_block=5, corr_rho=0.8, replications=2)
    t = run_trial(cfg, 0)
    assert np.isfinite(t["estimate"][-1])


def test_dependence_degrades_rate():
    # One fully dependent cluster: adding copies brings no new information, so
    # the error at N = 50 does not shrink below the N = 10 level.
    cfg = model2_config(n_max=50, replications=40, seed=8,
                        corr_block=50, corr_rho=0.9, eval_points=(10, 50))
    trials = run_trials(cfg, workers=1)
    errs = np.abs(trials["estimate"] - cfg.theta0)
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
        assert np.array_equal(shuffled[i]["estimate"], straight[i]["estimate"])


# fbm on every prefix, a few eval points with Omega_N enforced, fresh paths
# per N, and bm; seven trials in chunks of at most three run as 2, 2 and 3.
CHUNK_CONFIGS = {
    "fbm-prefixes": dict(n_max=10),
    "eval-points-omega": dict(n_max=40, eval_points=(3, 17, 40), enforce_omega=True),
    "fresh-paths": dict(n_max=6, fresh_paths_per_n=True),
    "bm": dict(hurst=0.5, mode="bm", n_max=20),
    # At N = 1 a chunk of one trial holds one path: a one-column time-major array.
    "fresh-bm": dict(hurst=0.5, mode="bm", n_max=6, fresh_paths_per_n=True),
    "model1-steps400": dict(model="model1", horizon=0.1, sigma=0.25, steps=400, n_max=6),
    "fresh-paths-corr": dict(n_max=8, eval_points=(2, 4, 6, 8), fresh_paths_per_n=True,
                             corr_block=2, corr_rho=0.5),
    # Trial 5 has NaN rows, where the iterates of the sign-changing drift diverge.
    "custom-nan-rows": dict(model="custom:-1,0,1,0", hurst=0.7, horizon=1.0, x0=0.0, n_max=20),
}


def _spy_chunks(monkeypatch) -> list[tuple[int, int]]:
    """The (start, stop) of each chunk `_run_chunk` runs from now on, in order."""
    real, ranges = montecarlo._run_chunk, []

    def chunk(config, indices):
        ranges.append((indices.start, indices.stop))
        return real(config, indices)

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
    return ranges


@pytest.mark.parametrize("case", sorted(CHUNK_CONFIGS))
def test_chunk_size_does_not_change_results(monkeypatch, case):
    cfg = model2_config(replications=7, **CHUNK_CONFIGS[case])
    nodes = cfg.n_max * (cfg.steps + 1)
    runs, ranges = [], _spy_chunks(monkeypatch)
    for trials_per_chunk, chunks in ((1, 7), (3, 3), (cfg.replications, 1)):
        monkeypatch.setattr(montecarlo, "_CHUNK_NODES", trials_per_chunk * nodes)
        ranges.clear()
        runs.append(run_trials(cfg))
        assert len(ranges) == chunks
    assert runs[0].shape == (7, len(cfg.points))
    for name in montecarlo.RESULT_ROW.names:
        want = runs[0][name].tobytes()
        assert runs[1][name].tobytes() == want == runs[2][name].tobytes()
    # Every field of the solve rows, R_N and the iteration counts too: the chunk
    # of seven trials against seven chunks of one.
    whole = montecarlo._run_chunk(cfg, range(7))
    for i in range(7):
        assert whole[i].tobytes() == run_trial(cfg, i).tobytes()
    assert runs[0][0]["estimate"].tobytes() != runs[0][1]["estimate"].tobytes()


def test_shares_run_in_near_equal_chunks(monkeypatch):
    ranges = _spy_chunks(monkeypatch)
    cfg = model2_config(replications=30, n_max=2, steps=2)
    # A share of 25 trials in chunks of at most six: five of five, not 6, 6, 6, 6, 1.
    share = np.empty((25, len(cfg.points)), montecarlo.RESULT_ROW)
    montecarlo._run_share(cfg, range(5, 30), 6, share)
    assert ranges == [(5, 10), (10, 15), (15, 20), (20, 25), (25, 30)]
    assert share.tobytes() == run_trials(cfg)[5:].tobytes()
    # A run of ten trials in chunks of at most three: 2, 3, 2, 3, not 3, 3, 3, 1.
    ranges.clear()
    cfg = replace(cfg, replications=10)
    monkeypatch.setattr(montecarlo, "_CHUNK_NODES", 3 * cfg.n_max * (cfg.steps + 1))
    assert run_trials(cfg).shape == (10, len(cfg.points))
    assert ranges == [(0, 2), (2, 5), (5, 7), (7, 10)]


def test_correlated_run_factors_the_cross_matrix_once(monkeypatch):
    from fpdrift import fbm

    real = fbm._cholesky_psd
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(fbm, "_cholesky_psd", counting)
    fbm.block_correlation.cache_clear()
    cfg = model2_config(n_max=12, corr_block=2, corr_rho=0.5, replications=5)
    run_trials(cfg)
    assert shapes.count((12, 12)) == 1
    corr = fbm.block_correlation(12, 2, 0.5)
    assert not corr.matrix.flags.writeable and not corr.factor.flags.writeable
    # The bundle is the cross factor applied to the time-correlated draw.
    grid, hurst = cfg.grid(), cfg.hurst_params()
    bundle = fbm.sample_fbm_bundle(hurst, grid, corr, np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((12, grid.steps))
    want = real(np.asarray(corr.matrix)) @ (z @ fbm._time_factor(hurst, grid).T)
    assert np.array_equal(bundle.values[:, 1:], want)
    assert shapes.count((12, 12)) == 1  # sampling reuses the validated factor
    fbm.block_correlation.cache_clear()


SIMULATION_CONFIGS = {
    "model1-steps400": dict(model="model1", horizon=0.1, sigma=0.25, steps=400),
    "corr-block": dict(n_max=8, corr_block=2, corr_rho=0.5),
    "bm-corr-block": dict(hurst=0.5, mode="bm", n_max=8, corr_block=2, corr_rho=0.5),
    "custom": dict(model="custom:-1,0,1,0", hurst=0.7, horizon=1.0, x0=0.0),
}


@pytest.mark.parametrize("case", sorted(SIMULATION_CONFIGS))
def test_simulate_bundle_is_its_trials_block_of_a_chunk(case):
    cfg = model2_config(**SIMULATION_CONFIGS[case])
    rngs = [montecarlo.trial_rng(cfg, i) for i in range(3)]
    alone = [montecarlo.trial_rng(cfg, i) for i in range(3)]
    for n in (8, 4, 2):  # size by size on the same rngs, as a chunk with fresh paths draws
        chunk = montecarlo.simulate_bundles(cfg, rngs, n)
        assert chunk.values.shape == (3 * n, cfg.steps + 1)
        for i, rng in enumerate(alone):  # trial i's block is its rng's next draw alone
            one = montecarlo.simulate_bundle(cfg, rng, n)
            assert one.values.tobytes() == chunk.values[i * n:(i + 1) * n].tobytes()


def test_fresh_correlated_run_factors_each_size_once_per_chunk(monkeypatch):
    from fpdrift import fbm

    real = fbm._cholesky_psd
    sizes = []

    def counting(a, *args, **kwargs):
        if np.array_equal(np.diag(a), np.ones(len(a))):  # a cross correlation matrix
            sizes.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(fbm, "_cholesky_psd", counting)
    points = tuple(range(2, 41, 2))  # 20 bundle sizes, more than block_correlation caches
    cfg = model2_config(n_max=40, eval_points=points, fresh_paths_per_n=True, corr_block=2,
                        corr_rho=0.5, replications=10)
    nodes, ranges = cfg.n_max * (cfg.steps + 1), _spy_chunks(monkeypatch)
    for per_chunk, chunks in ((cfg.replications, 1), (3, 4)):
        fbm.block_correlation.cache_clear()
        sizes.clear()
        ranges.clear()
        monkeypatch.setattr(montecarlo, "_CHUNK_NODES", per_chunk * nodes)
        run_trials(cfg)
        assert len(ranges) == chunks
        assert sorted(set(sizes)) == list(points)
        assert all(sizes.count(n) <= chunks for n in points)


_MODES = {"fbm": {}, "bm": dict(hurst=0.5, mode="bm")}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_run_trials_keeps_no_solve_rows_alive(mode, workers):
    # One packed array that owns its memory: no view of a chunk's solve rows.
    trials = run_trials(model2_config(replications=3, **_MODES[mode]), workers=workers)
    assert trials.base is None
    assert trials.dtype == montecarlo.RESULT_ROW and trials.dtype.itemsize == 33


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_run_trials_rows_are_the_trials_solve_rows(mode):
    cfg = model2_config(replications=4, **_MODES[mode])
    trials, names = run_trials(cfg), list(montecarlo.RESULT_ROW.names)
    for i in range(cfg.replications):
        want = run_trial(cfg, i)[names]
        for name in names:
            assert trials[i][name].tobytes() == want[name].tobytes(), (i, name)
