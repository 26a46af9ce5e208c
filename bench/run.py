"""fpdrift benchmark: end-to-end metrics of the CLI, or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0|1}

With ``--trace 0`` the run times repeated CLI calls of the workload in a fresh
interpreter and reports trials_per_s, cpu_s_per_trial, peak_rss_mb and
setup_s. With ``--trace 1`` it replays the same calls layer by layer and
reports the per-layer metrics. Either way it checks the CLI's output files and
exits non-zero, printing no result, if a check fails. ``--workload all`` runs
every workload in turn. The last line of standard output is the result as one
JSON object. README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 15
MIN_COVERAGE = 0.90        # acceptance criterion 7's band
TIME_LIMIT_S = 170.0       # every child must have ended by then


class BenchError(Exception):
    pass


def run_child(mode: str, wl: Workload, seed: int, seconds: float, work: Path,
              deadline: float) -> dict:
    """Run child.py in its own process group; kill the group if it overruns."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", wl.name,
           "--seed", str(seed), "--seconds", str(seconds), "--work", str(work)]
    # The child's stdout goes to stderr: only this script's result is on stdout.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} run of {wl.name} overran the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError(f"{mode} run of {wl.name} failed with exit code {code}")
    return json.loads((work / f"{mode}-result.json").read_text())


def read_summary(out: str) -> dict:
    header, row = Path(out, "summary.csv").read_text().splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


def check_outputs(wl: Workload, result: dict) -> tuple[int, int]:
    """Check the CLI's files; return (evaluations attempted, evaluations failed)."""
    attempted = failed = covered = trials = 0
    for call in result["calls"]:
        summary = read_summary(call["out"])
        reps = int(summary["replications"])
        trials += reps
        covered += round(float(summary["coverage"]) * reps)
        if wl.command == "experiment":
            rows = Path(call["out"], "trajectories.csv").read_text().splitlines()[1:]
            attempted += len(rows)
            failed += sum(row.split(",")[2] == "nan" for row in rows)
        else:
            attempted += reps
            if not math.isfinite(float(summary["mean_error"])):
                raise BenchError(f"{call['out']}/summary.csv: an evaluation at N = n_max "
                                 "failed; summary.csv cannot say how many")
        if "serial_out" in call:
            for path in sorted(Path(call["out"]).iterdir()):
                twin = Path(call["serial_out"], path.name)
                if path.read_bytes() != twin.read_bytes():
                    raise BenchError(f"{path} with --workers {wl.workers} differs from "
                                     f"the serial run's {twin}")
    if covered / trials < MIN_COVERAGE:
        raise BenchError(f"coverage {covered}/{trials} is below {MIN_COVERAGE}")
    check_reference(wl, read_summary(result["reference_out"]))
    return attempted, failed


def check_reference(wl: Workload, summary: dict) -> None:
    pinned = json.loads(REFERENCE.read_text())
    expected = pinned["workloads"][wl.name]
    for key in ("mean_error", "std_error", "coverage"):
        got = float(summary[key])
        if not math.isclose(got, expected[key], rel_tol=pinned["rel_tol"], abs_tol=0.0):
            raise BenchError(f"{wl.name} seed {REFERENCE_SEED}: {key} = {got!r}, pinned "
                             f"{expected[key]!r} (rel_tol {pinned['rel_tol']})")


def measure(wl: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if trace:
            result = run_child("trace", wl, seed, seconds, work, deadline)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["layers"].items()}
        else:
            setup = [run_child("setup", wl, seed, seconds, work, deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES)]
            result = run_child("run", wl, seed, seconds, work, deadline)
            calls = [c for c in result["calls"] if c["phase"] == "measured"]
            metrics = {
                "trials_per_s": {"value": statistics.median(
                    wl.replications / c["wall_s"] for c in calls), "unit": "1/s"},
                "cpu_s_per_trial": {"value": statistics.median(
                    c["cpu_s"] / wl.replications for c in calls), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
        attempted, failed = check_outputs(wl, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {wl.name}: {len(result['calls'])} CLI calls of {wl.replications} "
          f"trials, seed {seed}, trace {int(trace)}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    if trace:
        print(f"trace written to {result['trace_file']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} evaluations)")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fpdrift" / "__init__.py").is_file():
        print(f"error: no fpdrift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = [measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           deadline) for name in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[0] if len(results) == 1 else
                     dict(zip(names, results))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
