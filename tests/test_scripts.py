"""The paper-reproduction scripts run end to end and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--workers", "1", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_error_table():
    header, *rows = run_script("reproduce_error_table.py", "--replications", "2")
    assert header.split() == ["model", "H", "mean", "error", "std", "error", "seconds"]
    assert [row.split()[:2] for row in rows] == [["model1", "0.7"], ["model1", "0.9"],
                                                 ["model2", "0.7"], ["model2", "0.9"]]
    for row in rows:
        mean, std = map(float, row.split()[2:4])
        assert 0.0 <= mean < 1.0 and std >= 0.0


def test_threshold_sweep():
    lines = run_script("threshold_sweep.py")
    for model in ("model1", "model2"):
        start = lines.index(f"# {model}, H = 0.9, N = 15")
        assert lines[start + 1] == "threshold,mean_error"
        rows = lines[start + 2:start + 33]
        assert len(rows) == 31 and lines[start + 33] == ""
        errors = [float(row.split(",")[1]) for row in rows]
        assert errors[-1] == pytest.approx(1.0)  # past every D_N: the estimate is 0
    assert len(lines) == 2 * 34


def test_aci_coverage():
    lines = run_script("aci_coverage.py")
    assert [line.split(":")[0] for line in lines] == ["fbm (H=0.9, N=50)", "bm (H=0.5, N=200)"]
    for line in lines:
        coverage = float(line.split("coverage = ")[1].split()[0])
        assert 0.0 <= coverage <= 1.0


def test_output_digests():
    lines = run_script("output_digests.py", "--workers", "1,2", "--case", "estimate-fbm",
                       "--case", "bm-sigma-overflow")
    rows = [line.split() for line in lines]
    assert all(len(row) == 4 for row in rows)
    digests = {(case, workers, what): value for case, workers, what, value in rows}
    assert [what for case, workers, what, _ in rows if (case, workers) == ("estimate-fbm", "w1")] \
        == ["exit", "stdout", "stderr", "estimate.json"]
    assert digests["estimate-fbm", "w1", "exit"] == "0"
    assert digests["bm-sigma-overflow", "w1", "exit"] == "3"
    # Nothing here runs a threaded gemm, so the worker count changes no byte.
    for (case, workers, what), value in digests.items():
        assert digests[case, "w2", what] == value
