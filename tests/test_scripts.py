"""The paper-reproduction scripts run end to end and print their tables."""

import json
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
                       "--case", "bm-sigma-overflow", "--case", "json-format",
                       "--case", "custom-nan-rows-json", "--case", "model1-chunk")
    rows = [line.split() for line in lines]
    assert all(len(row) == 4 for row in rows)
    digests = {(case, workers, what): value for case, workers, what, value in rows}
    assert [what for case, workers, what, _ in rows if (case, workers) == ("estimate-fbm", "w1")] \
        == ["exit", "stdout", "stderr", "estimate.json"]
    assert digests["estimate-fbm", "w1", "exit"] == "0"
    assert digests["bm-sigma-overflow", "w1", "exit"] == "3"
    assert digests["model1-chunk", "w1", "exit"] == "0"
    for case in ("json-format", "custom-nan-rows-json"):
        assert digests[case, "w1", "exit"] == "0"
        assert {"summary.json", "trajectories.json"} <= {what for c, w, what in digests
                                                         if (c, w) == (case, "w1")}
    # Nothing here runs a threaded gemm, so the worker count changes no byte.
    for (case, workers, what), value in digests.items():
        assert digests[case, "w2", what] == value


def test_output_digests_against_a_kept_copy(tmp_path):
    cases = ["--case", "estimate-fbm", "--case", "custom-nan-rows"]
    kept = tmp_path / "kept"
    lines = run_script("output_digests.py", *cases, "--keep", str(kept))
    assert [line.split()[:3] for line in lines][:4] == [
        ["estimate-fbm", "w1", "exit"], ["estimate-fbm", "w1", "stdout"],
        ["estimate-fbm", "w1", "stderr"], ["estimate-fbm", "w1", "estimate.json"]]
    assert (kept / "estimate-fbm" / "w1.stdout").read_text().startswith("{")
    # The same runs against their kept copy: no file differs.
    assert run_script("output_digests.py", *cases, "--against", str(kept)) == []
    # A number moved by a relative 1e-10, and a NaN cell that is no longer NaN.
    estimate = kept / "estimate-fbm" / "w1" / "estimate.json"
    record = json.loads(estimate.read_text())
    record["theta_tilde"] *= 1.0 + 1e-10
    estimate.write_text(json.dumps(record, indent=2))
    trajectories = kept / "custom-nan-rows" / "w1" / "trajectories.csv"
    text = trajectories.read_text()
    assert ",nan" in text
    trajectories.write_text(text.replace(",nan", ",0", 1))
    lines = run_script("output_digests.py", *cases, "--against", str(kept))
    assert len(lines) == 2
    case, workers, name, what, rel = lines[0].split()
    assert (case, workers, name, what) == ("estimate-fbm", "w1", "estimate.json", "max_rel")
    assert float(rel) == pytest.approx(1e-10, rel=0.01)
    assert lines[1] == "custom-nan-rows w1 trajectories.csv mismatch"
    # The residual |Phi_N(R_N) - R_N| is rounding-sized, so it is measured on the
    # scale of R_N: a move by 15% of itself is a rounding-level move of R_N, and a
    # move by 1e-3 |R_N| still reads 1e-3.
    original = json.loads((kept / "estimate-fbm" / "w1.stdout").read_text())
    assert original["residual"] > 0.0
    for moved, want in ((0.15 * original["residual"], None), (1e-3 * abs(original["R_N"]), 1e-3)):
        estimate.write_text(json.dumps(original | {"residual": original["residual"] + moved},
                                       indent=2))
        lines = run_script("output_digests.py", "--case", "estimate-fbm", "--against", str(kept))
        assert [line.split()[:4] for line in lines] == [
            ["estimate-fbm", "w1", "estimate.json", "max_rel"]]
        rel = float(lines[0].split()[4])
        if want is None:
            assert 0.0 < rel <= 1e-15
        else:
            assert rel == pytest.approx(want, rel=1e-6)
