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

`--keep DIR` writes each case's files to DIR/<case>/w<workers>/, with its
stdout and stderr beside them as w<workers>.stdout and w<workers>.stderr.
`--against DIR` compares each run with the copy kept under DIR instead of
printing digests: one line per file (or stream) whose bytes differ,

    <case> w<workers> <file> max_rel <x>

where x is the largest relative difference over its numbers (CSV cells and
JSON numbers), or `<file> mismatch` where anything but a number differs, NaN
and null included. A JSON record's `residual`, |Phi_N(R_N) - R_N|, is a
rounding-sized number, so its difference is measured against the larger |R_N|
of the two records instead. To see how far a change moves the numbers:

    PYTHONPATH=../parent/src python3 scripts/output_digests.py --keep parent-out
    PYTHONPATH=src python3 scripts/output_digests.py --against parent-out

Usage: python3 scripts/output_digests.py [--seed SEED] [--workers 1,2] [--case NAME ...]
                                         [--keep DIR] [--against DIR]
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
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
# reads the first bundle that "simulate" writes, "estimate-input-bm" the first
# that "simulate-bm" writes.
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
    "corr-bm": ["experiment", *_sets(*_BM, *_SMALL, "corr_block=2", "corr_rho=0.3")],
    "bm": ["experiment", *_sets(*_BM, *_SMALL)],
    "eval-points-fbm": ["experiment", *_sets(*_FBM, "n_max=30", "eval_points=3,9,17",
                                             "replications=5")],
    "eval-points-bm": ["experiment", *_sets(*_BM, "n_max=30", "eval_points=3,9,17",
                                            "replications=5")],
    "sweep": ["sweep", *_sets(*_FBM, *_SMALL), "--grid", "0:0.5:6"],
    # Omega_N fails in 1 of these 10 trials, so the sweep's Omega gate bites.
    "sweep-omega-mixed": ["sweep", *_sets(*_FBM, "T=2.5", "n_max=20", "replications=10"),
                          "--grid", "0:0.5:6"],
    "sweep-bm": ["sweep", *_sets(*_BM, *_SMALL), "--grid", "0:0.5:6"],
    "sweep-n-fixed-fine": ["sweep", *_sets("model=model1", "H=0.9", "steps=400", "n_max=50",
                                           "replications=2"), "--grid", "0:0.5:6",
                           "--n-fixed", "25"],
    "sweep-n-fixed-100": ["sweep", *_sets(*_FBM, "n_max=200", "replications=4"),
                          "--grid", "0:0.25:8", "--n-fixed", "100"],
    "estimate-fbm": ["estimate", *_sets(*_FBM, "n_max=20")],
    "estimate-bm": ["estimate", *_sets(*_BM, "n_max=20")],
    "simulate": ["simulate", *_sets(*_FBM, "n_max=4", "replications=2")],
    "estimate-input": ["estimate", *_sets(*_FBM)],
    "simulate-bm": ["simulate", *_sets(*_BM, "n_max=4", "replications=2")],
    "estimate-input-bm": ["estimate", *_sets(*_BM)],
    "estimate-enforce-omega": ["estimate", *_sets(*_FBM, "n_max=20", "enforce_omega=true")],
    # Omega_N fails in some trials: one warning line.
    "coverage-omega-warning": ["coverage", *_sets(*_FBM, "T=5", "n_max=20",
                                                  "replications=10")],
    # The sign-changing drift leaves NaN rows: 5 at x0 = 1 (exit 0), and at x0 = 0
    # a trial with no final estimate (exit 3).
    "custom-nan-rows": ["experiment", *_sets(*_CUSTOM, "x0=1")],
    "custom-undefined-final": ["experiment", *_sets(*_CUSTOM, "x0=0")],
    # A threshold above that trial's D_N (0.094) truncates its estimate to 0: exit 0.
    "custom-undefined-final-d-threshold": ["experiment", *_sets(*_CUSTOM, "x0=0",
                                                                "d_threshold=0.1")],
    # Thresholds amid the D_N values: the estimate is 0 where D_N falls below them,
    # in 3 of the 5 final rows of d-threshold-fbm and 2 of the 5 of d-threshold-bm.
    "d-threshold-fbm": ["experiment", *_sets(*_FBM, *_SMALL, "d_threshold=13.8")],
    "d-threshold-bm": ["coverage", *_sets(*_BM, *_SMALL, "d_threshold=14")],
    # The sweep refuses the trial whose iterate diverges at x0 = 0 (exit 3).
    "sweep-custom-undefined": ["sweep", *_sets(*_CUSTOM, "x0=0"), "--grid", "0:0.5:3"],
    # A linear drift of positive slope, b' = 0.5: Phi_N's lag terms e^{s beta t_k} grow.
    "custom-positive-slope": ["experiment", *_sets("model=custom:0.5,1", "H=0.7", "T=1",
                                                   "sigma=1", "x0=1", *_SMALL)],
    # The same NaN rows in JSON, where they are written as null.
    "custom-nan-rows-json": ["experiment", *_sets(*_CUSTOM, "x0=1"), "--format", "json"],
    # I_N is far from 0 on T = 5, so the factors e^{+-sC} of Phi_N are large.
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
    # Fresh paths in several chunks per share: 32 trials a chunk at n_max = 40, steps = 100.
    "fresh-bm-chunks": ["experiment", *_sets(
        *_BM, "fresh_paths_per_n=true", "steps=100", "n_max=40",
        "eval_points=" + ",".join(str(n) for n in range(2, 41, 2)), "replications=70")],
    "fresh-corr-40": ["experiment", *_sets(
        *_FBM, *_FRESH, "n_max=40",
        "eval_points=" + ",".join(str(n) for n in range(2, 41, 2)), "replications=2")],
    "eval-points-enforce-omega": ["experiment", *_sets(*_FBM, "n_max=40", "eval_points=3,17,40",
                                                       "enforce_omega=true", "replications=5")],
    # 40 nonlinear trials in one chunk, the last eval point below the bundle size.
    "model1-chunk": ["experiment", *_sets("model=model1", "H=0.7", "n_max=40",
                                          "eval_points=3,17,30", "replications=40")],
    # Three bm chunks, the last eval point below the bundle size.
    "eval-points-bm-chunks": ["experiment", *_sets(*_BM, "steps=100", "n_max=40",
                                                   "eval_points=5,20,35", "replications=70")],
    # Several chunks per share.
    "fbm-300": ["experiment", *_sets(*_FBM, "n_max=50", "replications=300")],
    "bm-400": ["coverage", *_sets(*_BM, "steps=100", "n_max=50", "replications=400")],
    "bm-25": ["coverage", *_sets(*_BM, "steps=100", "n_max=200", "replications=25")],
    "x0-1e150": ["experiment", *_sets(*_FBM, "x0=1e150", "n_max=3", "replications=1")],
    "x0-1e200": ["experiment", *_sets(*_FBM, "x0=1e200", "n_max=3", "replications=1")],
    # sup|b'|^2 underflows in Omega_N's bound, and 2 T alpha_bar sup|b'| in the schedule.
    "tiny-b-prime": ["experiment", *_sets("model=custom:1e-200,1", "T=1", "sigma=1", "H=0.7",
                                          "n_max=5", "replications=2")],
    # sigma^2 sup|b'|^2 = 1e400 overflows in Omega_N's bound, which then fails; every
    # D_N = 0 (exit 3).
    "omega-bound-overflow": ["experiment", *_sets("model=custom:1e200,0", "H=0.7", "T=1",
                                                  "sigma=1", "x0=0", "steps=1", "n_max=2",
                                                  "replications=2")],
    "tiny-schedule-constant": ["experiment", *_sets("model=custom:1e-300,0", "T=1e-150",
                                                    "sigma=1", "H=0.7", "n_max=5",
                                                    "replications=2")],
}

# estimate-input case -> the simulate case whose first bundle it reads.
_INPUTS = {"estimate-input": "simulate", "estimate-input-bm": "simulate-bm"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], out: Path) -> list[tuple[str, str]]:
    """(what, value) pairs of one in-process call: the exit, the sha256 of stdout
    and stderr, and the sha256 of each file written under out. The streams are
    kept beside out, as out.stdout and out.stderr."""
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
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        out.with_name(f"{out.name}.{stream}").write_text(text.getvalue(), encoding="utf-8")
    lines = [("exit", code), ("stdout", _sha(stdout.getvalue().encode())),
             ("stderr", _sha(stderr.getvalue().encode()))]
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return lines + [(p.relative_to(out).as_posix(), _sha(p.read_bytes())) for p in files]


def _cells(text: str) -> list:
    """The leaves of a JSON text in order, or else the cells of a CSV text:
    numbers as (value, the scale a difference is measured on) pairs of floats
    (NaN for null or "nan"), anything else as a string."""
    try:
        return _leaves(json.loads(text))
    except ValueError:
        return [_number(cell) for row in csv.reader(io.StringIO(text)) for cell in row]


def _leaves(node, scale: float = 0.0) -> list:
    """A number's scale is its own size, or scale where that is larger."""
    if isinstance(node, dict):
        # A record's residual |Phi_N(R_N) - R_N| is measured on the scale of its R_N.
        r_n = node.get("R_N")
        near = abs(r_n) if isinstance(r_n, (int, float)) else 0.0
        return [leaf for key, item in node.items()
                for leaf in (str(key), *_leaves(item, near if key == "residual" else 0.0))]
    if isinstance(node, list):
        return [leaf for item in node for leaf in _leaves(item)]
    if node is None:
        return [(math.nan, math.nan)]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [(float(node), max(abs(float(node)), scale))]
    return [str(node)]


def _number(cell: str):
    try:
        return float(cell), abs(float(cell))
    except ValueError:
        return cell


def max_rel(old: str, new: str) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numbers of two texts (for a
    residual, at least the larger |R_N|), or None where their cells differ
    otherwise: in count, in a string, or in where NaN is."""
    a, b = _cells(old), _cells(new)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return None
        elif math.isnan(x[0]) or math.isnan(y[0]):
            if not (math.isnan(x[0]) and math.isnan(y[0])):
                return None
        elif x[0] != y[0]:
            if math.isinf(x[0]) or math.isinf(y[0]):
                return None
            worst = max(worst, abs(x[0] - y[0]) / max(x[1], y[1]))
    return worst


def compare(out: Path, kept: Path) -> list[str]:
    """'<file> max_rel <x>' or '<file> mismatch' for each file of out, or stream
    beside it, whose bytes differ from its copy under kept."""
    pairs = [(stream, *(d.with_name(f"{d.name}.{stream}") for d in (out, kept)))
             for stream in ("stdout", "stderr")]
    names = sorted({p.relative_to(root).as_posix() for root in (out, kept) if root.is_dir()
                    for p in root.rglob("*") if p.is_file()})
    pairs += [(name, out / name, kept / name) for name in names]
    lines = []
    for name, new, old in pairs:
        if not (new.is_file() and old.is_file()):
            lines.append(f"{name} mismatch")
        elif new.read_bytes() != old.read_bytes():
            rel = max_rel(old.read_text(encoding="utf-8"), new.read_text(encoding="utf-8"))
            lines.append(f"{name} mismatch" if rel is None else f"{name} max_rel {rel:.3g}")
    return lines


def main(args: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", default="1,2", help="comma-separated worker counts")
    ap.add_argument("--case", action="append", choices=sorted(CASES), default=None,
                    help="run only this case (repeatable; default: all)")
    ap.add_argument("--keep", type=Path, default=None,
                    help="write each case's files to DIR/<case>/w<workers>/")
    ap.add_argument("--against", type=Path, default=None,
                    help="print how each written file differs from its copy kept under DIR")
    opts = ap.parse_args(args)
    if opts.keep and opts.keep.exists() and any(opts.keep.iterdir()):
        ap.error(f"--keep {opts.keep}: the directory must be empty or absent")
    names = opts.case or list(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        root = opts.keep or Path(tmp)
        # The bundles the estimate-input cases read, written whether or not their
        # simulate cases are run.
        bundles = Path(tmp, "bundle")
        for name in _INPUTS.values():
            run_case([*CASES[name], "--seed", str(opts.seed), "--workers", "1"], bundles / name)
        for workers in opts.workers.split(","):
            for name in names:
                argv = [*CASES[name], "--seed", str(opts.seed), "--workers", workers]
                if name in _INPUTS:
                    argv += ["--input", str(bundles / _INPUTS[name] / "bundle_0000.csv")]
                out = root / name / f"w{workers}"
                out.parent.mkdir(parents=True, exist_ok=True)
                lines = [f"{what} {value}" for what, value in run_case(argv, out)]
                if opts.against:
                    lines = compare(out, opts.against / name / f"w{workers}")
                for line in lines:
                    print(f"{name} w{workers} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
