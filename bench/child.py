"""One benchmark process: set-up timing, an untraced run, or a traced run.

run.py starts this script in a fresh interpreter for every measurement, so the
resident-set peak and CPU time it reports belong to that measurement alone.
It imports fpdrift from the checkout's ``src`` directory and writes its result
as JSON to ``<work>/<mode>-result.json``.

    python3 bench/child.py {setup|run|trace} --workload NAME --seed N \
        --seconds S --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Workload, program_seed

SRC = Path(__file__).resolve().parent.parent / "src"
# Calls made before the measured ones, as a share of --seconds. A study of
# hundreds of trials in one call amortizes the first calls' page faults and
# allocator growth; the measured calls stand for that steady state.
WARMUP_SHARE = 0.2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def manifest() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def setup(wl: Workload) -> dict:
    start = time.perf_counter()
    import fpdrift.cli  # noqa: F401  (the import is what is timed)
    from fpdrift.config import parse_config

    parse_config(overrides=wl.overrides, seed=REFERENCE_SEED)
    return {"setup_s": time.perf_counter() - start}


def cli_call(wl: Workload, seed: int, out: Path, workers: int | None = None) -> float:
    from fpdrift import cli

    argv = wl.argv(seed, str(out), workers)
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"fpdrift {' '.join(argv)} exited {code}")
    return wall


def reference_call(wl: Workload, calls: list[dict], work: Path) -> str:
    """Output directory of the reference-seed call, making it if no timed call was one."""
    for call in calls:
        if call["seed"] == REFERENCE_SEED:
            return call["out"]
    out = work / "reference"
    cli_call(wl, REFERENCE_SEED, out)
    return str(out)


def serial_twins(wl: Workload, calls: list[dict], work: Path) -> None:
    """Rerun every pooled call with one worker, for the byte-identity check."""
    if wl.workers == 1:
        return
    for call in calls:
        if "serial_out" not in call:
            out = work / f"call{call['index']}-serial"
            cli_call(wl, call["seed"], out, workers=1)
            call["serial_out"] = str(out)


def run(wl: Workload, bench_seed: int, seconds: float, work: Path) -> dict:
    import fpdrift.cli  # noqa: F401  (imported before timing starts)

    calls = []
    for phase, length in (("warmup", WARMUP_SHARE * seconds), ("measured", seconds)):
        start = time.perf_counter()
        first = len(calls)
        while len(calls) == first or time.perf_counter() - start < length:
            index = len(calls)
            seed = program_seed(bench_seed, index)
            out = work / f"call{index}"
            cpu_before = cpu_seconds()
            wall = cli_call(wl, seed, out)
            calls.append({"index": index, "seed": seed, "out": str(out), "phase": phase,
                          "wall_s": wall, "cpu_s": cpu_seconds() - cpu_before})
    peak = peak_rss_mb()
    # Work for the output checks only; it runs after the measured calls.
    reference = reference_call(wl, calls, work)
    serial_twins(wl, calls, work)
    return {"calls": calls, "peak_rss_mb": peak, "reference_out": reference}


def trace(wl: Workload, bench_seed: int, seconds: float, work: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        index = len(calls)
        seed = program_seed(bench_seed, index)
        call = {"index": index, "seed": seed, "out": str(work / f"call{index}")}
        tracing.traced_call(tracer, wl, call, work)
        calls.append(call)
    trace_path = work.parent / "traces" / f"{wl.name}-seed{bench_seed}.json"
    tracer.dump(trace_path)
    reference = reference_call(wl, calls, work)
    return {"calls": calls, "layers": tracing.layer_metrics(tracer, wl, calls),
            "reference_out": reference, "trace_file": str(trace_path)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.mode == "setup":
        result = setup(wl)
    else:
        mode = run if args.mode == "run" else trace
        result = mode(wl, args.seed, args.seconds, work)
        result["manifest"] = manifest()
    (work / f"{args.mode}-result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
