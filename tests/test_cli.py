import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fpdrift

from fpdrift import ConfigError, parse_config
from fpdrift import montecarlo
from fpdrift.cli import main, _parse_grid, _read_bundle_csv

pytestmark = pytest.mark.usefixtures("no_env_seed")


@pytest.fixture
def no_env_seed(monkeypatch):
    monkeypatch.delenv("FPDRIFT_SEED", raising=False)


def write_config(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------

def test_minimal_config_applies_preset(tmp_path):
    path = write_config(tmp_path, "model: model2\nH: 0.9\nseed: 1\n")
    cfg = parse_config(path)
    e = cfg.experiment
    assert e.horizon == 0.75 and e.sigma == 1.0  # model2 preset
    assert e.x0 == 5.0 and e.theta0 == 1.0
    assert e.steps == 20 and e.contraction == 0.5 and e.alpha == 0.05
    assert e.tol == 1e-12 and e.enforce_omega is False
    assert e.seed == 1


def test_model1_preset(tmp_path):
    cfg = parse_config(write_config(tmp_path, "model: model1\nH: 0.7\n"))
    assert cfg.experiment.horizon == 0.1
    assert cfg.experiment.sigma == 0.25


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "model: model2\nH: 0.9\nwibble: 3\n")
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(path)


def test_range_error_names_field(tmp_path):
    path = write_config(tmp_path, "model: model2\nH: 1.2\n")
    with pytest.raises(ConfigError, match="H"):
        parse_config(path)
    path = write_config(tmp_path, "model: model2\nH: 0.9\nsigma: 0\n")
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(path)


# Each entry of eval_points takes the integer keys' rule: no float, no bool.
@pytest.mark.parametrize("points", ["[3.7, 10.2]", "[true, 5]"], ids=["floats", "bool"])
def test_eval_points_entries_must_be_integers(tmp_path, capsys, points):
    path = write_config(tmp_path, f"model: model2\nH: 0.7\neval_points: {points}\n")
    with pytest.raises(ConfigError, match="^eval_points: "):
        parse_config(path)
    assert run_cli("experiment", "--config", path, "--out", str(tmp_path / "out"),
                   "--workers", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eval_points: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_malformed_file(tmp_path):
    path = write_config(tmp_path, "model: [unclosed\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.yaml"))


def test_overrides_and_precedence(tmp_path):
    path = write_config(tmp_path, "model: model2\nH: 0.9\nseed: 1\n")
    cfg = parse_config(path, overrides=["n_max=12", "enforce_omega=true"], seed=99)
    assert cfg.experiment.n_max == 12
    assert cfg.experiment.enforce_omega is True
    assert cfg.experiment.seed == 99  # explicit seed wins over the file
    with pytest.raises(ConfigError):
        parse_config(path, overrides=["oops"])
    with pytest.raises(ConfigError):
        parse_config(path, overrides=["nosuchkey=3"])


def test_round_trip(tmp_path):
    import yaml
    cfg = parse_config(write_config(tmp_path, "model: model1\nH: 0.7\nn_max: 9\n"),
                       overrides=["eval_points=3,9", "alpha=0.1"])
    dumped = tmp_path / "effective.yaml"
    dumped.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
    again = parse_config(str(dumped))
    assert again == cfg


def test_cli_import_loads_no_pool_yaml_or_random():
    # Serial runs need none of these; the pool and config files import them on use.
    code = ("import sys, fpdrift.cli; print(sorted(m for m in ('yaml', 'concurrent.futures', "
            "'multiprocessing', 'numpy.random') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(fpdrift.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"



@pytest.mark.parametrize("command", ["coverage", "experiment"])
def test_workers_keep_every_byte_at_400_steps_with_one_blas_thread(tmp_path, command):
    # The --workers promise as README states it, on a grid whose products
    # OpenBLAS would thread (criterion 10 runs 20 steps, where none is): with
    # one BLAS thread, the worker count changes no byte of any written file.
    env = dict(os.environ, PYTHONPATH=str(Path(fpdrift.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    argv = [command, "--set", "model=model1", "--set", "H=0.9", "--set", "steps=400",
            "--set", "n_max=50", "--set", "replications=2", "--seed", "7"]
    for workers in ("1", "2"):
        subprocess.run([sys.executable, "-m", "fpdrift.cli", *argv, "--workers", workers,
                        "--out", str(tmp_path / f"w{workers}")], env=env, check=True)
    files = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "w2").iterdir()) and files
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_in_process_calls_reuse_the_parser(tmp_path, monkeypatch):
    # Two in-process calls on the one cached parser write what two fresh
    # interpreters write, and the --workers default is resolved on each call.
    from fpdrift import cli

    calls = [["experiment", "--set", "model=model2", "--set", "H=0.7", "--set", "n_max=6",
              "--set", "replications=3", "--seed", "4", "--format", "json", "--workers", "2"],
             ["coverage", "--set", "model=model1", "--set", "H=0.8", "--set", "n_max=5",
              "--set", "replications=2", "--seed", "9", "--workers", "1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(fpdrift.__file__).parents[1]))
    for k, argv in enumerate(calls):
        assert main([*argv, "--out", str(tmp_path / f"in{k}")]) == 0
        subprocess.run([sys.executable, "-m", "fpdrift.cli", *argv,
                        "--out", str(tmp_path / f"fresh{k}")], env=env, check=True)
    for k in range(len(calls)):
        files = sorted(p.name for p in (tmp_path / f"fresh{k}").iterdir())
        assert files == sorted(p.name for p in (tmp_path / f"in{k}").iterdir()) and files
        for name in files:
            assert ((tmp_path / f"in{k}" / name).read_bytes()
                    == (tmp_path / f"fresh{k}" / name).read_bytes())
    assert cli._build_parser() is cli._build_parser()
    asked = []
    monkeypatch.setattr(cli, "default_workers", lambda: asked.append(1) or 1)
    for k in range(2):
        assert main([*calls[1][:-2], "--out", str(tmp_path / f"default{k}")]) == 0
    assert len(asked) == 2


def test_parse_grid():
    grid = _parse_grid("0.5:0.1:31")
    assert len(grid) == 31
    assert grid[0] == 0.5
    assert grid[1] == pytest.approx(0.6)
    assert _parse_grid("1:0.5:31")[-1] == pytest.approx(16.0)
    with pytest.raises(ConfigError):
        _parse_grid("1:2")
    with pytest.raises(ConfigError):
        _parse_grid("a:b:c")
    with pytest.raises(ConfigError):
        _parse_grid("1:1:0")
    for spec in ("1:nan:3", "inf:1:2", "1e308:1e308:3"):
        with pytest.raises(ConfigError, match="finite"):
            _parse_grid(spec)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def run_cli(*args):
    return main(list(args))


def common_args(tmp_path, **extra):
    args = ["--set", "model=model2", "--set", "H=0.9",
            "--set", "replications=2", "--set", "n_max=3",
            "--seed", "5", "--out", str(tmp_path), "--workers", "1"]
    for k, v in extra.items():
        args += ["--set", f"{k}={v}"]
    return args


def test_simulate_row_counts(tmp_path):
    code = run_cli("simulate", *common_args(tmp_path, steps=2, n_max=1,
                                            replications=1))
    assert code == 0
    lines = (tmp_path / "bundle_0000.csv").read_text().splitlines()
    assert lines[0] == "t,path_1"
    assert len(lines) == 1 + 3  # header + (steps + 1) nodes


def test_simulate_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", *common_args(out1))
    run_cli("simulate", *common_args(out2))
    assert (out1 / "bundle_0000.csv").read_bytes() == (out2 / "bundle_0000.csv").read_bytes()


def test_estimate_record(tmp_path):
    code = run_cli("estimate", *common_args(tmp_path))
    assert code == 0
    record = json.loads((tmp_path / "estimate.json").read_text())
    for key in ("theta_tilde", "R_N", "iterations", "residual", "D_N", "I_N",
                "omega_holds", "aci_lower", "aci_upper"):
        assert key in record
    assert record["omega_holds"] is True
    assert record["aci_lower"] < record["theta_tilde"] < record["aci_upper"]


def test_estimate_constant_drift_equals_identity_statistic(tmp_path):
    code = run_cli("estimate", "--set", "model=custom:2", "--set", "H=0.9",
                   "--set", "T=0.5", "--set", "sigma=1.0", "--set", "n_max=3",
                   "--seed", "5", "--out", str(tmp_path), "--workers", "1")
    assert code == 0
    record = json.loads((tmp_path / "estimate.json").read_text())
    assert record["R_N"] == 0.0
    assert record["theta_tilde"] == pytest.approx(record["I_N"])


def test_estimate_from_simulated_file(tmp_path):
    run_cli("simulate", *common_args(tmp_path, replications=1))
    bundle_path = str(tmp_path / "bundle_0000.csv")
    code = run_cli("estimate", *common_args(tmp_path), "--input", bundle_path)
    assert code == 0
    bundle = _read_bundle_csv(bundle_path)
    assert bundle.n_paths == 3


@pytest.mark.parametrize("hurst", ["0.7", "0.5"])
def test_estimate_of_a_simulated_file_is_the_direct_estimate(tmp_path, hurst):
    # The bundle CSV holds every value to 17 digits, and each cache sums its paths
    # in one order whatever their storage: estimate --input of the bundle that
    # simulate wrote gives the bytes that estimate gives from the same seed.
    args = ["--set", "model=model1", "--set", f"H={hurst}", "--set", "steps=200",
            "--set", "n_max=30", "--set", "replications=1", "--seed", "4", "--workers", "1"]
    assert run_cli("simulate", *args, "--out", str(tmp_path / "bundle")) == 0
    assert run_cli("estimate", *args, "--out", str(tmp_path / "direct")) == 0
    assert run_cli("estimate", *args, "--out", str(tmp_path / "input"),
                   "--input", str(tmp_path / "bundle" / "bundle_0000.csv")) == 0
    direct = (tmp_path / "direct" / "estimate.json").read_bytes()
    assert (tmp_path / "input" / "estimate.json").read_bytes() == direct
    assert ("D_N" if hurst == "0.7" else "D_Nn") in json.loads(direct)


def test_correlated_bm_keeps_every_byte_under_any_worker_count(tmp_path):
    # Correlated Brownian copies: the cross factor's gemm runs once per trial, so
    # its bits do not depend on how trials are cut into shares and chunks.
    argv = ["experiment", "--set", "model=model2", "--set", "mode=bm", "--set", "H=0.5",
            "--set", "n_max=20", "--set", "replications=7", "--set", "corr_block=2",
            "--set", "corr_rho=0.3", "--seed", "3"]
    for workers in ("1", "2", "3"):
        assert run_cli(*argv, "--workers", workers, "--out", str(tmp_path / f"w{workers}")) == 0
    for name in ("summary.csv", "trajectories.csv"):
        written = [(tmp_path / f"w{workers}" / name).read_bytes() for workers in "123"]
        assert written[0] == written[1] == written[2]


def test_estimate_missing_input_is_io_error(tmp_path):
    code = run_cli("estimate", *common_args(tmp_path),
                   "--input", str(tmp_path / "nope.csv"))
    assert code == 4


@pytest.mark.parametrize("setting", [
    "H=1.5", "model=foo", "max_iters=0", "contraction=1.5", "tol=-1",
    "steps=0", "alpha=1.5", "T=0",
    # n_max = 50; the first key is the one the message must name.
    "corr_block=0", "corr_block=3", "corr_block=2 fresh_paths_per_n=true",
    "corr_rho=-1.5 corr_block=2", "corr_rho=1.5 corr_block=5",
    "T=inf", "sigma=nan", "theta0=nan", "x0=nan", "d_threshold=nan",
    "seed=-1", "alpha=1e-20", "model=custom:inf,0", "model=custom:1,nan",
    # sigma^2 overflows, sigma^2 underflows to 0, T^2 underflows to 0.
    "sigma=1e200", "sigma=1e-300", "T=1e-300",
])
def test_validation_error_exit_code(tmp_path, capsys, setting):
    sets = [arg for item in setting.split() for arg in ("--set", item)]
    code = run_cli("experiment", "--set", "model=model2", "--set", "H=0.9",
                   "--set", "T=0.75", "--set", "sigma=1", *sets,
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert setting.split("=")[0] in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_code(tmp_path, capsys, workers):
    code = run_cli("experiment", "--set", "model=model2", "--set", "H=0.9",
                   "--set", "T=0.75", "--set", "sigma=1", "--set", "replications=2",
                   "--set", "n_max=2", "--out", str(tmp_path), "--workers", workers)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--workers" in err


@pytest.mark.parametrize("n_fixed", ["0", "9"])
def test_sweep_n_fixed_out_of_range_exit_code(tmp_path, capsys, n_fixed):
    code = run_cli("sweep", *common_args(tmp_path), "--set", "n_max=5",
                   "--grid", "0.5:0.1:3", "--n-fixed", n_fixed)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--n-fixed" in err


@pytest.mark.parametrize("case,expected", [
    # b(x) = x^2 from x0 = 5 overflows within the 20 Euler steps.
    (("experiment", "--set", "model=custom:1,0,0", "--set", "H=0.9", "--set", "T=1",
      "--set", "sigma=1", "--set", "replications=1", "--set", "n_max=2"), 3),
    ("t,path_1\n0,5\n0.5,abc\n1,3\n", 2),
    ("t,path_1\n0,5\n0.5,4,7\n1,3\n", 2),
    ("t,path_1\n0,5\n0.5,nan\n1,3\n", 2),
    # The paths stay finite, but Phi_N overflows on the first Picard step.
    (("estimate", "--set", "model=custom:0.5,0,0", "--set", "T=0.5", "--set", "H=0.7",
      "--set", "sigma=1"), 3),
    # A finite horizon whose T^2H, and so the fBm covariance, is out of the float range.
    (("experiment", "--set", "model=model2", "--set", "H=0.7", "--set", "T=1e308",
      "--set", "n_max=2", "--set", "replications=1"), 3),
    # sigma^2 is finite, but sigma^2 Ybar_N, and so the interval, is not.
    (("experiment", "--set", "model=model2", "--set", "H=0.7", "--set", "sigma=1e100",
      "--set", "n_max=3", "--set", "replications=1"), 3),
    # The same at H = 1/2, where the per-path Ybar sums already overflow.
    (("experiment", "--set", "model=model2", "--set", "mode=bm", "--set", "H=0.5",
      "--set", "sigma=1e100", "--set", "n_max=3", "--set", "replications=1"), 3),
    # The paths stay finite, but a per-path D_N (b(X)^2 = X^2) overflows.
    (("experiment", "--set", "model=model2", "--set", "H=0.7", "--set", "x0=1e200",
      "--set", "n_max=3", "--set", "replications=1"), 3),
    # b stays bounded, but the antiderivative's difference is inf - inf, so I_N is NaN.
    (("experiment", "--set", "model=model1", "--set", "H=0.7", "--set", "x0=1e200",
      "--set", "n_max=3", "--set", "replications=1"), 3),
    # The same at H = 1/2, where D_{N,n} overflows.
    (("experiment", "--set", "model=model2", "--set", "mode=bm", "--set", "H=0.5",
      "--set", "x0=1e200", "--set", "n_max=3", "--set", "replications=1"), 3),
    # b = 0: D_{N,n} = 0 on every trial, so the final estimates and the summary are undefined.
    (("experiment", "--set", "model=custom:0", "--set", "mode=bm", "--set", "H=0.5",
      "--set", "T=1", "--set", "sigma=1", "--set", "n_max=2", "--set", "replications=5"), 3),
    # The estimates are finite, but |theta - theta0| is not.
    (("coverage", "--set", "model=model1", "--set", "mode=bm", "--set", "H=0.5",
      "--set", "theta0=1e308", "--set", "steps=2", "--set", "n_max=4",
      "--set", "replications=1"), 3),
    # Each path's V is finite, but their sum over N = 20 paths overflows.
    (("experiment", "--set", "model=custom:1", "--set", "mode=bm", "--set", "H=0.5",
      "--set", "T=1", "--set", "sigma=1", "--set", "theta0=1e308", "--set", "steps=1",
      "--set", "n_max=20", "--set", "replications=5"), 3),
    # T^2 overflows in Ybar_N; b = 0 then leaves every D_N = 0.
    (("coverage", "--set", "model=custom:0", "--set", "H=0.50000000000000011",
      "--set", "T=1e160", "--set", "sigma=1", "--set", "n_max=4", "--set", "replications=5"),
     3),
    # 2 T alpha_bar sup|b'| underflows in the Picard schedule, which is built for
    # every prefix; b(X)^2 underflows too, so every D_N = 0.
    (("experiment", "--set", "model=custom:1e-300,0", "--set", "T=1e-150", "--set", "sigma=1",
      "--set", "H=0.7", "--set", "n_max=5", "--set", "replications=2"), 3),
    # sigma^2 sup|b'|^2 = 1e400 overflows in Omega_N's bound, which then fails; b(x0) = 0
    # on the one left-point node leaves every D_N = 0.
    (("experiment", "--set", "model=custom:1e200,0", "--set", "H=0.7", "--set", "T=1",
      "--set", "sigma=1", "--set", "x0=0", "--set", "n_max=2", "--set", "replications=2",
      "--set", "steps=1"), 3),
    # The same bound overflows, and Phi_N too.
    (("estimate", "--set", "model=custom:1e200,0", "--set", "H=0.7", "--set", "T=1",
      "--set", "sigma=1e-160", "--set", "x0=0", "--set", "n_max=2", "--set", "replications=2",
      "--set", "steps=2"), 3),
    # A bundle on T = 1e300, whose T^2H overflows in Omega_N, and Phi_N too.
    ("t,path_1,path_2\n0,5,5\n5e299,4,3\n1e300,3,2\n", 3),
], ids=["explosive-drift", "non-numeric-cell", "ragged-row", "nan-cell", "phi-overflow",
        "fbm-overflow", "interval-overflow", "bm-interval-overflow", "statistic-overflow",
        "antiderivative-overflow", "bm-statistic-overflow", "undefined-final-estimates",
        "error-overflow", "prefix-sum-overflow", "fbm-horizon-square-overflow",
        "schedule-constant-underflow", "omega-bound-overflow", "omega-bound-overflow-estimate",
        "omega-horizon-overflow"])
def test_bad_simulation_or_input_exit_code(tmp_path, capsys, case, expected):
    if isinstance(case, tuple):
        code = run_cli(*case, "--out", str(tmp_path), "--workers", "1")
    else:
        path = tmp_path / "bundle.csv"
        path.write_text(case, encoding="utf-8")
        code = run_cli("estimate", *common_args(tmp_path), "--input", str(path))
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if not isinstance(case, tuple) and expected == 2:  # a malformed file is named
        assert str(tmp_path / "bundle.csv") in err


@pytest.mark.parametrize("case", [
    # T^2 overflows in Ybar_N at H = 1/2, where sigma^2 Ybar_N stays in range.
    ("experiment", "--set", "model=model2", "--set", "mode=bm", "--set", "H=0.5",
     "--set", "sigma=1e-160", "--set", "T=1e160", "--set", "steps=1", "--set", "n_max=2",
     "--set", "replications=1"),
    # The Picard schedule's constant underflows to 0: the floor of 30 iterations applies.
    ("experiment", "--set", "model=custom:-1,0,1,0", "--set", "H=0.7", "--set", "T=1",
     "--set", "sigma=1", "--set", "contraction=5e-324", "--set", "n_max=3",
     "--set", "replications=2"),
    # sup|b'|^2 = 1e-400 underflows to 0 in Omega_N's bound, whose right side is then +inf.
    ("experiment", "--set", "model=custom:1e-200,1", "--set", "T=1", "--set", "sigma=1",
     "--set", "H=0.7", "--set", "n_max=5", "--set", "replications=2"),
], ids=["bm-horizon-square-overflow", "schedule-underflow", "omega-bound-underflow"])
def test_float_range_edges_run_to_completion(tmp_path, capsys, case):
    assert run_cli(*case, "--seed", "3", "--out", str(tmp_path), "--workers", "1") == 0
    err = capsys.readouterr().err
    assert err == "" or (err.startswith("warning: ") and err.count("\n") == 1)
    assert "nan" not in (tmp_path / "summary.csv").read_text()


def test_fbm_overflow_exit_code_in_pool(tmp_path, capsys):
    code = run_cli("experiment", "--set", "model=model2", "--set", "H=0.7",
                   "--set", "T=1e308", "--set", "n_max=2", "--set", "replications=2",
                   "--out", str(tmp_path), "--workers", "2")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "covariance" in err


def test_killed_worker_exit_code(tmp_path, capsys, monkeypatch):
    parent, real = os.getpid(), montecarlo._run_chunk

    def chunk(config, indices):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config, indices)

    monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
    code = run_cli("experiment", *common_args(tmp_path)[:-2], "--workers", "2")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "trials 1..1 ended with wait status 9 (killed by signal 9)" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unallocatable_grid_exit_code(tmp_path, capsys, workers):
    # The fBm covariance of 10^6 steps takes 7.28 TiB: numpy's request for it
    # fails at once (with two workers, in the parent's share and in the child's).
    code = run_cli("coverage", "--set", "model=model1", "--set", "H=0.9",
                   "--set", "steps=1000000", "--set", "n_max=2",
                   "--set", f"replications={workers}", "--out", str(tmp_path),
                   "--workers", workers)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: steps: ") and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unallocatable_results_exit_code(tmp_path, capsys, workers):
    # 10^9 trials of 50 packed result rows take 1.50 TiB: run_trials asks for its
    # result array before any trial runs, and the request fails at once.
    code = run_cli("experiment", "--set", "model=model2", "--set", "H=0.7",
                   "--set", "replications=1000000000", "--out", str(tmp_path),
                   "--workers", workers)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: replications: ") and err.count("\n") == 1
    assert "1.50 TiB" in err


# The edges of each --set key's range: zero, the smallest and largest floats of
# either sign, non-finite strings, H at and just inside its bounds, and custom
# drift coefficients. Size keys stay small or invalid, so that
# steps * n_max * replications <= 2000 and no example allocates much.
_TINY_HUGE = ("0", "5e-324", "-5e-324", "1e-160", "-1e-160", "1e160", "-1e160", "1e308",
              "-1e308", "nan", "inf", "-inf")
EDGES = {
    "H": ("0", "5e-324", "0.5", "0.50000000000000011", "0.99999999999999989", "1", "nan",
          "inf"),
    **{key: _TINY_HUGE for key in ("T", "sigma", "x0", "theta0", "contraction",
                                    "d_threshold", "alpha", "tol", "corr_rho")},
    "model": ("custom:0", "custom:1", "custom:-1,0,1,0", "custom:5e-324,1e308",
              "custom:1e308,-1e308", "custom:nan", "custom:1,0,0,0,0,1", "custom:1e-200,1"),
    "mode": ("fbm", "bm"),
    "steps": ("0", "-1", "1"),
    "n_max": ("0", "-1", "1"),
    "replications": ("0", "-1", "1"),
    "max_iters": ("0", "-1", "1"),
    "corr_block": ("0", "-1", "1", "2"),
    "eval_points": ("1", "0", "1,1", "2,1"),
    "enforce_omega": ("true", "false"),
    "fresh_paths_per_n": ("true", "false"),
}
MODELS = ("model1", "model2", "custom:-1,0,1,0", "custom:0.5,1")
# Small sweep grids, from 0 and across the float range.
SWEEP_GRIDS = ("0:0.5:3", "0:5e-324:2", "-1e308:1e308:3")


@st.composite
def edge_runs(draw):
    """A command (sweep with its --grid) and its --set values: a valid small run,
    with one to three keys moved to an edge of their range."""
    model = draw(st.sampled_from(MODELS))
    sets = {"model": model, "H": draw(st.sampled_from(("0.5", "0.7", "0.9"))),
            "steps": draw(st.sampled_from(("2", "20"))),
            "n_max": draw(st.sampled_from(("2", "4", "20"))),
            "replications": draw(st.sampled_from(("1", "5")))}
    if model.startswith("custom:"):  # no preset supplies T and sigma
        sets.update(T="1", sigma="1")
    for key in draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=3,
                             unique=True)):
        sets[key] = draw(st.sampled_from(EDGES[key]))
    command = draw(st.sampled_from(("experiment", "coverage", "sweep")))
    if command == "sweep":
        return [command, f"--grid={draw(st.sampled_from(SWEEP_GRIDS))}"], sets
    return [command], sets


@settings(max_examples=90, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=edge_runs())
def test_edge_values_end_in_a_documented_exit_code(run):
    command, sets = run
    argv = [*command, "--seed", "3", "--workers", "1"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", out])  # raising is printing a traceback
        written = Path(out, "sweep.csv" if command[0] == "sweep" else "summary.csv")
        rows = list(csv.reader(written.read_text().splitlines()))[1:] if written.exists() else []
    # A warning the program does not catch is one more stderr line, in its own format.
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4), (argv, code, lines)
    assert lines == [] or (len(lines) == 1 and lines[0].startswith(("warning: ", "error: "))), \
        (argv, code, lines)
    if code == 0 and command[0] == "sweep":  # (threshold, mean_error) rows
        assert len(rows) == int(command[1].split(":")[2]) and all(
            len(row) == 2 and not any(map(math.isnan, map(float, row))) for row in rows), \
            (argv, rows)
    elif code == 0:  # a model cell, quoted where it holds commas, then seven numbers
        assert len(rows) == 1 and len(rows[0]) == 8 and not any(
            math.isnan(float(c)) for c in rows[0][1:]), (argv, rows)


# sha256 of the files these runs write; the warning goes to stderr only. Pinned
# again when model2's Phi_N became n times one path's sum: every number moved
# by at most rel 3.5e-16 from the files first pinned, before the warning existed.
# Pinned once more when model2's Phi_N became a sum over the lags: every number
# moved by at most rel 3.9e-16 from the previous pin.
OMEGA_WARNING_FILES = {
    "summary.csv": "739af421ab07f45441c94748a77a244931edcad9fb73d001f380e57bb9251fc8",
    "trajectories.csv": "201e20168902257ecde1edb0f7fa643b37d80eb390ca2c508f3d15b51cc92cde",
}


@pytest.mark.parametrize("command,files", [
    ("experiment", ["summary.csv", "trajectories.csv"]),
    ("coverage", ["summary.csv"]),
])
def test_untruncated_estimates_warn_when_omega_fails(tmp_path, capsys, command, files):
    import hashlib
    # On T = 2.5, Omega_N fails at N = 10 in 5 of these 20 trials.
    args = ["--set", "model=model2", "--set", "H=0.7", "--set", "T=2.5",
            "--set", "n_max=10", "--set", "eval_points=10", "--set", "replications=20",
            "--seed", "3", "--workers", "1"]
    assert run_cli(command, *args, "--out", str(tmp_path / "raw")) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: ")
    assert "5 of 20 trials" in err and "N = 10" in err
    assert sorted(p.name for p in (tmp_path / "raw").iterdir()) == files
    for name in files:
        digest = hashlib.sha256((tmp_path / "raw" / name).read_bytes()).hexdigest()
        assert digest == OMEGA_WARNING_FILES[name]
    # The truncated estimates need no warning.
    assert run_cli(command, *args, "--set", "enforce_omega=true",
                   "--out", str(tmp_path / "truncated")) == 0
    assert capsys.readouterr().err == ""


def test_stiff_drift_estimate_without_omega(tmp_path):
    # sup|b'| |I_N| T is ~1500, so M_N = e^1500 is out of the float range and
    # Omega_N cannot hold; |s| span(C) ~ 1500 puts both paths on the
    # pair-by-pair sum of Phi_N. The value is that of a sum over every pair
    # (j, l) with no factorization.
    code = run_cli("estimate", "--set", "model=custom:-6000,0", "--set", "T=0.5",
                   "--set", "steps=3000", "--set", "H=0.7", "--set", "sigma=1",
                   "--set", "n_max=2", "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    record = json.loads((tmp_path / "estimate.json").read_text())
    assert record["omega_holds"] is False
    assert record["theta_tilde"] == pytest.approx(0.4998889914620243, rel=1e-12, abs=0.0)


def test_degenerate_statistics_exit_code(tmp_path):
    # Drift b(x) = x - 5 vanishes at x0 = 5 with tiny noise: D_N can still be
    # positive, so force degeneracy with b = 0 polynomial.
    code = run_cli("estimate", "--set", "model=custom:0", "--set", "H=0.9",
                   "--set", "T=0.5", "--set", "sigma=1.0",
                   "--seed", "5", "--out", str(tmp_path), "--workers", "1")
    assert code == 3


def test_experiment_outputs(tmp_path):
    code = run_cli("experiment", *common_args(tmp_path, replications=1))
    assert code == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "model,H,N_max,replications,mean_error,std_error,coverage,seconds"
    assert len(summary) == 2
    traj = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "trial,N,estimate,aci_lower,aci_upper"
    assert len(traj) == 1 + 3  # one trial, n_max = 3


def test_custom_model_summary_cell_is_quoted(tmp_path):
    code = run_cli("experiment", "--set", "model=custom:-1,0,1,0", "--set", "H=0.7",
                   "--set", "T=1", "--set", "sigma=1", "--set", "x0=1", "--set", "n_max=4",
                   "--set", "replications=2", "--seed", "0", "--out", str(tmp_path),
                   "--workers", "1")
    assert code == 0
    text = (tmp_path / "summary.csv").read_text()
    header, row = csv.reader(text.splitlines())
    assert len(header) == len(row) == 8
    assert row[0] == "custom:-1,0,1,0" and text.splitlines()[1].startswith('"custom:-1,0,1,0",')


def strict_json(path):
    """The JSON file at path, refusing the NaN and Infinity that RFC 8259 has not."""
    def refuse(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_experiment_json_format(tmp_path):
    code = run_cli("experiment", *common_args(tmp_path), "--format", "json")
    assert code == 0
    summary = strict_json(tmp_path / "summary.json")
    assert summary["replications"] == 2
    traj = strict_json(tmp_path / "trajectories.json")
    assert len(traj["trials"]) == 2


def test_json_writes_null_for_nan_rows(tmp_path):
    # The sign-changing drift leaves 5 NaN rows at x0 = 1, 3 numbers each.
    code = run_cli("experiment", "--set", "model=custom:-1,0,1,0", "--set", "H=0.7",
                   "--set", "T=1", "--set", "sigma=1", "--set", "n_max=20",
                   "--set", "replications=20", "--set", "x0=1", "--seed", "0",
                   "--workers", "1", "--format", "json", "--out", str(tmp_path))
    assert code == 0
    trials = strict_json(tmp_path / "trajectories.json")["trials"]
    cells = [v for t in trials for key in ("estimate", "aci_lower", "aci_upper") for v in t[key]]
    assert cells.count(None) == 15
    assert all(v is None or math.isfinite(v) for v in cells)
    assert math.isfinite(strict_json(tmp_path / "summary.json")["mean_error"])


def test_seventeen_digit_round_trip(tmp_path):
    run_cli("experiment", *common_args(tmp_path))
    for line in (tmp_path / "trajectories.csv").read_text().splitlines()[1:]:
        for cell in line.split(",")[2:]:
            value = float(cell)
            assert format(value, ".17g") == cell


def test_sweep_outputs(tmp_path):
    code = run_cli("sweep", *common_args(tmp_path), "--grid", "0.5:0.1:31")
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "threshold,mean_error"
    assert len(lines) == 32


# b(x) = x - x^3 from x0 = 0.3 or 0: in one trial the Picard iterate at N = 20
# leaves the float range while D_N > 0. The error names that cause, and the
# sweep refuses the trial as `experiment` does, writing nothing.
@pytest.mark.parametrize("command,x0,reps,seed,extra", [
    ("experiment", "0.3", 40, "1", []),
    ("sweep", "0", 20, "0", ["--grid", "0:0.5:3"]),
])
def test_a_divergent_trial_is_refused_as_one(tmp_path, capsys, command, x0, reps, seed, extra):
    args = ["--set", "model=custom:-1,0,1,0", "--set", f"x0={x0}", "--set", "T=1",
            "--set", "sigma=1", "--set", "H=0.7", "--set", "n_max=20",
            "--set", f"replications={reps}", "--seed", seed, "--workers", "1"]
    assert run_cli(command, *args, *extra, "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == (
        f"error: the estimate at N = 20 is undefined in 1 of {reps} trials (D_N <= 0 in 0, "
        "a non-finite statistic or iterate in 1); the summary would be NaN\n")
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_an_infinite_mean_error(tmp_path, capsys):
    # b = 0: D_N = 0, so every threshold above 0 truncates each estimate to 0, and
    # the mean of the errors |0 - 1e308| overflows.
    args = ["--set", "model=custom:0", "--set", "H=0.7", "--set", "T=1", "--set", "sigma=1",
            "--set", "n_max=4", "--set", "replications=5", "--set", "theta0=1e308",
            "--seed", "3", "--workers", "1", "--out", str(tmp_path / "out")]
    assert run_cli("sweep", *args, "--grid", "1:1:2") == 3
    assert capsys.readouterr().err == (
        "error: a mean error leaves the float range (theta0 = 1e+308)\n")
    assert not (tmp_path / "out").exists()


def test_sweep_warns_where_omega_fails(tmp_path, capsys):
    # On T = 5 Omega_N fails at N = 20 in every trial: the sweep's estimator,
    # Omega_N enforced, is 0 there at every threshold.
    args = ["--set", "model=model2", "--set", "H=0.7", "--set", "T=5", "--set", "n_max=20",
            "--set", "replications=10", "--seed", "0", "--workers", "1"]
    assert run_cli("sweep", *args, "--grid", "0:0.5:4", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == (
        "warning: Omega_N did not hold at N = 20 in 10 of 10 trials; their truncated "
        "estimates are 0 at every threshold\n")
    assert (tmp_path / "sweep.csv").read_text() == "threshold,mean_error\n" + "".join(
        f"{d},1\n" for d in ("0", "0.5", "1", "1.5"))


@pytest.mark.parametrize("h", ["0.7", "0.5"])
def test_d_threshold_above_every_d_n_reports_zero(tmp_path, h):
    args = ["--set", "model=model2", "--set", f"H={h}", "--set", "n_max=20",
            "--set", "replications=5", "--seed", "3", "--workers", "1"]
    assert run_cli("experiment", *args, "--set", "d_threshold=50", "--out", str(tmp_path)) == 0
    rows = list(csv.DictReader((tmp_path / "trajectories.csv").read_text().splitlines()))
    assert len(rows) == 100 and all(row["estimate"] == "0" for row in rows)
    assert all(float(row["aci_upper"]) == -float(row["aci_lower"]) > 0.0 for row in rows)
    assert (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")[4:6] == ["1", "0"]


@pytest.mark.parametrize("command", ["experiment", "coverage"])
def test_truncated_rows_where_d_n_vanishes_do_not_cover(tmp_path, command):
    # b = 0: D_N = 0 in every trial. At d_threshold 0 no estimate is defined (exit
    # 3); above 0 each is 0, with a NaN interval that does not cover theta0.
    args = ["--set", "model=custom:0", "--set", "H=0.7", "--set", "T=1", "--set", "sigma=1",
            "--set", "n_max=4", "--set", "replications=3", "--seed", "3", "--workers", "1"]
    assert run_cli(command, *args, "--out", str(tmp_path / "zero")) == 3
    assert run_cli(command, *args, "--set", "d_threshold=1e-300",
                   "--out", str(tmp_path / "out")) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[4:7] == ["1", "0", "0"]
    if command == "experiment":
        for row in (tmp_path / "out" / "trajectories.csv").read_text().splitlines()[1:]:
            assert row.split(",")[2:] == ["0", "nan", "nan"]


# Every config key but the output ones: (base overrides it needs, its changed
# values), which must change some byte that `experiment`, `coverage` or `sweep`
# writes from KEY_BASE. On T = 2.5 Omega_N fails in some trials, so
# enforce_omega bites, and with it the contraction constant. Blocks of
# independent copies (corr_rho 0) are independent copies, so corr_block and
# corr_rho are each tried with the other set. The mode follows from H (H = 1/2
# selects bm, and bm needs H = 1/2), so it moves with H.
KEY_BASE = ("model=model2", "H=0.7", "T=2.5", "steps=10", "n_max=10", "replications=4",
            "seed=3")
KEY_CHANGES = {
    "model": ({}, {"model": "model1"}),
    "H": ({}, {"H": "0.8"}),
    "T": ({}, {"T": "2"}),
    "sigma": ({}, {"sigma": "0.5"}),
    "x0": ({}, {"x0": "4"}),
    "theta0": ({}, {"theta0": "0.5"}),
    "steps": ({}, {"steps": "12"}),
    "n_max": ({}, {"n_max": "8"}),
    "replications": ({}, {"replications": "3"}),
    "seed": ({}, {"seed": "4"}),
    "contraction": ({"enforce_omega": "true"}, {"contraction": "0.9"}),
    "d_threshold": ({}, {"d_threshold": "100"}),
    "alpha": ({}, {"alpha": "0.2"}),
    "max_iters": ({}, {"max_iters": "2"}),
    "tol": ({}, {"tol": "1e-3"}),
    "enforce_omega": ({}, {"enforce_omega": "true"}),
    "corr_block": ({"corr_rho": "0.3"}, {"corr_block": "2"}),
    "corr_rho": ({"corr_block": "2"}, {"corr_rho": "0.3"}),
    "mode": ({}, {"mode": "bm", "H": "0.5"}),
    "eval_points": ({}, {"eval_points": "3,7"}),
    "fresh_paths_per_n": ({}, {"fresh_paths_per_n": "true"}),
}


def _written(sets: tuple[str, ...]) -> dict[str, bytes]:
    """The files that `experiment`, `coverage` and `sweep` write with these --set values."""
    with tempfile.TemporaryDirectory() as out:
        for command in (["experiment"], ["coverage"], ["sweep", "--grid", "0:2:4"]):
            argv = [*command, "--workers", "1", "--out", f"{out}/{command[0]}"]
            assert main([*argv, *(arg for item in sets for arg in ("--set", item))]) == 0, sets
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(Path(out).rglob("*")) if p.is_file()}


def test_every_config_key_changes_some_output():
    from fpdrift import config

    assert set(KEY_CHANGES) == config._ALL_KEYS - set(config._OUTPUT_KEYS)
    unchanged = []
    for key, (extra, change) in KEY_CHANGES.items():
        base = (*KEY_BASE, *(f"{k}={v}" for k, v in extra.items()))
        if _written(base) == _written((*base, *(f"{k}={v}" for k, v in change.items()))):
            unchanged.append(key)
    assert unchanged == []


@pytest.mark.parametrize("command,extra,finished,files", [
    ("experiment", [], "experiment finished in ", ["summary.csv", "trajectories.csv"]),
    ("coverage", [], "coverage run finished in ", ["summary.csv"]),
    ("sweep", ["--grid", "0:0.5:4"], "sweep finished in ", ["sweep.csv"]),
])
def test_verbosity_logs_the_timing_and_each_file(tmp_path, capsys, command, extra, finished,
                                                 files):
    # verbosity=1 adds stderr lines only: the command's timing, then one per file.
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert run_cli(command, *common_args(quiet), *extra) == 0
    assert capsys.readouterr().err == ""
    assert run_cli(command, *common_args(loud, verbosity=1), *extra) == 0
    timing, *wrote = capsys.readouterr().err.splitlines()
    assert re.fullmatch(re.escape(finished) + r"\d+\.\d\ds( \(\w+=\S+\))?", timing), timing
    assert wrote == [f"wrote {loud / name}" for name in files]
    assert sorted(p.name for p in loud.iterdir()) == files
    for name in files:
        assert (loud / name).read_bytes() == (quiet / name).read_bytes()


def test_coverage_outputs(tmp_path):
    code = run_cli("coverage", *common_args(tmp_path))
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    coverage = float(lines[1].split(",")[6])
    assert 0.0 <= coverage <= 1.0


# Files written by these fixed-seed runs before the module-level estimators
# were folded into the estimator caches; any later change must reproduce them.
PINNED_RUNS = {
    "fbm-experiment": (
        ["experiment", "--set", "model=model2", "--set", "H=0.7", "--set", "n_max=4",
         "--set", "replications=2", "--seed", "11"],
        {
            "summary.csv": """\
model,H,N_max,replications,mean_error,std_error,coverage,seconds
model2,0.69999999999999996,4,2,0.07504872746636948,0.015761631258759734,1,0
""",
            "trajectories.csv": """\
trial,N,estimate,aci_lower,aci_upper
0,1,1.1230471492634471,0.058525996128879543,2.1875683023980148
0,2,0.86359220304420237,0.13190882825253059,1.5952755778358743
0,3,0.87968998566722256,0.28236807881801496,1.4770118925164302
0,4,1.0592870962076097,0.52583575298668461,1.5927384394285349
1,1,1.2787141511114506,0.1901820169295092,2.3672462852933922
1,2,1.2047169376456848,0.43443226893379672,1.9750016063575728
1,3,1.230016369067781,0.59969401206295603,1.8603387260726061
1,4,1.0908103587251292,0.55667937994170547,1.6249413375085529
""",
        },
    ),
    "bm-coverage": (
        ["coverage", "--set", "model=model2", "--set", "mode=bm", "--set", "H=0.5",
         "--set", "steps=50", "--set", "n_max=20", "--set", "replications=5",
         "--seed", "11"],
        {
            "summary.csv": """\
model,H,N_max,replications,mean_error,std_error,coverage,seconds
model2,0.5,20,5,0.084756925075515577,0.044921686834685205,1,0
""",
        },
    ),
}


def _words_and_numbers(text):
    words, numbers = [], []
    for cell in text.strip().replace("\n", ",").split(","):
        try:
            numbers.append(float(cell))
        except ValueError:
            words.append(cell)
    return words, numbers


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_fixed_seed_outputs_pinned(tmp_path, run):
    argv, files = PINNED_RUNS[run]
    assert run_cli(*argv, "--out", str(tmp_path), "--workers", "1") == 0
    for name, text in files.items():
        got_words, got_numbers = _words_and_numbers((tmp_path / name).read_text())
        want_words, want_numbers = _words_and_numbers(text)
        assert got_words == want_words
        assert got_numbers == pytest.approx(want_numbers, rel=1e-12, nan_ok=True)


def test_env_var_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FPDRIFT_SEED", "321")
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    args = ["--set", "model=model2", "--set", "H=0.9", "--set", "replications=1",
            "--set", "n_max=2", "--workers", "1"]
    run_cli("experiment", *args, "--out", str(out_env))
    run_cli("experiment", *args, "--out", str(out_flag), "--seed", "321")
    assert (out_env / "trajectories.csv").read_bytes() == \
        (out_flag / "trajectories.csv").read_bytes()
    # An explicit --seed overrides the environment.
    out_other = tmp_path / "other"
    run_cli("experiment", *args, "--out", str(out_other), "--seed", "99")
    assert (out_env / "trajectories.csv").read_bytes() != \
        (out_other / "trajectories.csv").read_bytes()


def test_bad_env_var_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FPDRIFT_SEED", "notanumber")
    code = run_cli("experiment", "--set", "model=model2", "--set", "H=0.9",
                   "--set", "replications=1", "--set", "n_max=2",
                   "--out", str(tmp_path), "--workers", "1")
    assert code == 2


def test_negative_env_var_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FPDRIFT_SEED", "-5")
    code = run_cli("estimate", "--set", "model=model2", "--set", "H=0.9",
                   "--set", "n_max=2", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and err.count("\n") == 1
