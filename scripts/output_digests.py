#!/usr/bin/env python3
"""sha256 digests of what a list of fixed-seed CLI runs write.

Each case is one `fpdrift` call, made in this process under each worker count.
For every (case, workers) the script prints the exit code, then one sha256 line
for stdout, for stderr and for each file the run wrote, sorted by name:

    <case> w<workers> exit <code>
    <case> w<workers> <stdout|stderr|file name> <sha256>

An exception that escapes `cli.main` is recorded as the exit `raised <type>`.
A Python warning is recorded on stderr as its category and message, without
the file and line that would tie the digest to one checkout. To compare two
checkouts, run this script against each and diff the outputs:

    PYTHONPATH=src python3 scripts/output_digests.py > change.txt
    PYTHONPATH=../parent/src python3 scripts/output_digests.py > parent.txt
    diff parent.txt change.txt

Usage: python3 scripts/output_digests.py [--seed SEED] [--workers 1,2] [--case NAME ...]
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

from fpdrift import cli


def _sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


_FBM = ("model=model2", "H=0.7")
_BM = ("model=model2", "mode=bm", "H=0.5")
_SMALL = ("n_max=20", "replications=5")
_FRESH = ("fresh_paths_per_n=true", "corr_block=2", "corr_rho=0.3")
_CUSTOM = ("model=custom:-1,0,1,0", "H=0.7", "T=1", "sigma=1", "n_max=20", "replications=20")

# name -> CLI arguments before --seed, --workers and --out. "estimate-input"
# reads the first bundle that "simulate" writes.
CASES: dict[str, list[str]] = {
    # The benchmark's three workloads.
    "fbm-prefix": ["experiment", *_sets(*_FBM, "steps=20", "n_max=200", "replications=10")],
    "fbm-fine-grid": ["coverage", *_sets("model=model1", "H=0.9", "steps=400", "n_max=50",
                                         "replications=2")],
    "bm-coverage-pool": ["coverage", *_sets(*_BM, "steps=100", "n_max=200",
                                            "replications=50")],
    "json-format": ["experiment", *_sets(*_FBM, *_SMALL), "--format", "json"],
    "fresh-fbm": ["experiment", *_sets(*_FBM, "fresh_paths_per_n=true", "n_max=12",
                                       "replications=3")],
    "fresh-bm": ["experiment", *_sets(*_BM, "fresh_paths_per_n=true", "n_max=12",
                                      "replications=3")],
    "corr-block-2": ["experiment", *_sets(*_FBM, *_SMALL, "corr_block=2", "corr_rho=0.3")],
    "corr-block-4": ["experiment", *_sets(*_FBM, *_SMALL, "corr_block=4", "corr_rho=0.3")],
    "bm": ["experiment", *_sets(*_BM, *_SMALL)],
    "eval-points-fbm": ["experiment", *_sets(*_FBM, "n_max=30", "eval_points=3,9,17",
                                             "replications=5")],
    "eval-points-bm": ["experiment", *_sets(*_BM, "n_max=30", "eval_points=3,9,17",
                                            "replications=5")],
    "sweep": ["sweep", *_sets(*_FBM, *_SMALL), "--grid", "0:0.5:6"],
    "sweep-n-fixed-fine": ["sweep", *_sets("model=model1", "H=0.9", "steps=400", "n_max=50",
                                           "replications=2"), "--grid", "0:0.5:6",
                           "--n-fixed", "25"],
    "sweep-n-fixed-100": ["sweep", *_sets(*_FBM, "n_max=200", "replications=4"),
                          "--grid", "0:0.25:8", "--n-fixed", "100"],
    "estimate-fbm": ["estimate", *_sets(*_FBM, "n_max=20")],
    "estimate-bm": ["estimate", *_sets(*_BM, "n_max=20")],
    "simulate": ["simulate", *_sets(*_FBM, "n_max=4", "replications=2")],
    "estimate-input": ["estimate", *_sets(*_FBM)],
    "estimate-enforce-omega": ["estimate", *_sets(*_FBM, "n_max=20", "enforce_omega=true")],
    # Omega_N fails in some trials: one warning line.
    "coverage-omega-warning": ["coverage", *_sets(*_FBM, "T=5", "n_max=20",
                                                  "replications=10")],
    # The sign-changing drift leaves NaN rows: 5 at x0 = 1 (exit 0), and at x0 = 0
    # a trial with no final estimate (exit 3).
    "custom-nan-rows": ["experiment", *_sets(*_CUSTOM, "x0=1")],
    "custom-undefined-final": ["experiment", *_sets(*_CUSTOM, "x0=0")],
    # The same NaN rows in JSON, where they are written as null.
    "custom-nan-rows-json": ["experiment", *_sets(*_CUSTOM, "x0=1"), "--format", "json"],
    # I_N is far from 0 on T = 5: the Taylor table serves few steps.
    "model2-t5": ["experiment", *_sets(*_FBM, "T=5", *_SMALL)],
    "model1-fine": ["experiment", *_sets("model=model1", "H=0.9", "steps=400", "n_max=50",
                                         "replications=2")],
    "model1-fine-fresh": ["experiment", *_sets("model=model1", "H=0.9", "steps=400",
                                               "n_max=6", "fresh_paths_per_n=true",
                                               "replications=2")],
    "bm-sigma-overflow": ["experiment", *_sets(*_BM, "sigma=1e100", "n_max=3",
                                               "replications=1")],
    "fresh-corr-12": ["experiment", *_sets(*_FBM, *_FRESH, "n_max=12",
                                           "eval_points=2,4,6,8,10,12", "replications=3")],
    "fresh-corr-40": ["experiment", *_sets(
        *_FBM, *_FRESH, "n_max=40",
        "eval_points=" + ",".join(str(n) for n in range(2, 41, 2)), "replications=2")],
    "eval-points-enforce-omega": ["experiment", *_sets(*_FBM, "n_max=40", "eval_points=3,17,40",
                                                       "enforce_omega=true", "replications=5")],
    # Several chunks per share.
    "fbm-300": ["experiment", *_sets(*_FBM, "n_max=50", "replications=300")],
    "bm-400": ["coverage", *_sets(*_BM, "steps=100", "n_max=50", "replications=400")],
    "bm-25": ["coverage", *_sets(*_BM, "steps=100", "n_max=200", "replications=25")],
    "x0-1e150": ["experiment", *_sets(*_FBM, "x0=1e150", "n_max=3", "replications=1")],
    "x0-1e200": ["experiment", *_sets(*_FBM, "x0=1e200", "n_max=3", "replications=1")],
    # sup|b'|^2 underflows in Omega_N's bound, and 2 T alpha_bar sup|b'| in the schedule.
    "tiny-b-prime": ["experiment", *_sets("model=custom:1e-200,1", "T=1", "sigma=1", "H=0.7",
                                          "n_max=5", "replications=2")],
    "tiny-schedule-constant": ["experiment", *_sets("model=custom:1e-300,0", "T=1e-150",
                                                    "sigma=1", "H=0.7", "n_max=5",
                                                    "replications=2")],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], out: Path) -> list[tuple[str, str]]:
    """(what, value) pairs of one in-process call: the exit, the sha256 of stdout
    and stderr, and the sha256 of each file written under out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = str(cli.main([*argv, "--out", str(out)]))
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}"
    for w in caught:
        stderr.write(f"{w.category.__name__}: {w.message}\n")
    lines = [("exit", code), ("stdout", _sha(stdout.getvalue().encode())),
             ("stderr", _sha(stderr.getvalue().encode()))]
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return lines + [(p.relative_to(out).as_posix(), _sha(p.read_bytes())) for p in files]


def main(args: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", default="1,2", help="comma-separated worker counts")
    ap.add_argument("--case", action="append", choices=sorted(CASES), default=None,
                    help="run only this case (repeatable; default: all)")
    opts = ap.parse_args(args)
    names = opts.case or list(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        # The bundle "estimate-input" reads, written whether or not "simulate" is run.
        bundle_dir = Path(tmp, "bundle")
        run_case([*CASES["simulate"], "--seed", str(opts.seed), "--workers", "1"], bundle_dir)
        for workers in opts.workers.split(","):
            for name in names:
                argv = [*CASES[name], "--seed", str(opts.seed), "--workers", workers]
                if name == "estimate-input":
                    argv += ["--input", str(bundle_dir / "bundle_0000.csv")]
                out = Path(tmp, f"{name}-w{workers}")
                for what, value in run_case(argv, out):
                    print(f"{name} w{workers} {what} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
