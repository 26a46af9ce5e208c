"""Command-line interface: simulate | estimate | experiment | sweep | coverage.

All numeric output is written with 17 significant digits so that emitted files
are byte-stable for a fixed (config, seed) and round-trip through float parsing
without loss. Wall-clock timings go to stderr only; file contents depend on
nothing but the configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, DegenerateStatisticsError, DivergenceError, FpdriftError
from .fbm import PathBundle, Grid
from .montecarlo import (
    coverage_experiment,
    default_workers,
    estimate,
    estimator_cache,
    run_experiment,
    simulate_bundle,
    threshold_sweep,
    trial_rng,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

SEED_ENV_VAR = "FPDRIFT_SEED"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path: str, lines: Sequence[str]) -> None:
    """Each of lines (which may span several) and a newline, in one write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*lines, ""]))


def _finite_or_none(value):
    """value with each non-finite float in it, however nested, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(item) for item in value]
    return value


def _json_text(payload) -> str:
    """payload as indented JSON, with null for NaN and infinities, which JSON
    (RFC 8259) cannot hold."""
    return json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)


def _log(cfg: RunConfig, message: str) -> None:
    if cfg.verbosity > 0:
        print(message, file=sys.stderr)


def _parse_grid(spec: str) -> list[float]:
    """Threshold grid 'start:step:count' -> [start, start+step, ...]."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {spec!r} is not of the form start:step:count")
    try:
        start, step, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid spec {spec!r}: {exc}") from exc
    if count < 1:
        raise ConfigError("grid count must be >= 1")
    grid = [start + step * k for k in range(count)]
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"grid spec {spec!r}: every threshold must be finite")
    return grid


def _bundle_csv_lines(bundle: PathBundle) -> list[str]:
    """The header, then one row per node: its time and each path's value there."""
    rows = zip(bundle.grid.nodes.tolist(), bundle.values.T.tolist())
    return ["t," + ",".join(f"path_{i + 1}" for i in range(bundle.n_paths)),
            *(",".join(map(_fmt, [t, *row])) for t, row in rows)]


def _read_bundle_csv(path: str) -> PathBundle:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise ConfigError(f"{path}: not a bundle CSV (missing 't,path_...' header)")
    if len(lines) < 3:
        raise ConfigError(f"{path}: needs at least two grid nodes")
    width = len(lines[0].split(","))
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        if any(len(row) != width for row in rows):
            raise ValueError(f"every row needs {width} cells, as the header has")
        arr = np.asarray(rows, dtype=float)
        nodes, values = arr[:, 0], arr[:, 1:].T
        grid = Grid(horizon=float(nodes[-1]), steps=nodes.size - 1)
        if not np.allclose(nodes, grid.nodes, rtol=1e-12, atol=1e-12):
            raise ValueError("grid nodes are not uniform")
        return PathBundle(grid=grid, values=values, kind="solution")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> int:
    e = cfg.experiment
    os.makedirs(cfg.out_dir, exist_ok=True)
    for trial in range(e.replications):
        bundle = simulate_bundle(e, trial_rng(e, trial), e.n_max)
        path = os.path.join(cfg.out_dir, f"bundle_{trial:04d}.csv")
        _write_lines(path, _bundle_csv_lines(bundle))
        _log(cfg, f"wrote {path}")
    return EXIT_OK


def _estimate_record(cfg: RunConfig, bundle: PathBundle) -> dict:
    e = cfg.experiment
    est = estimate(e, estimator_cache(e, bundle))
    if e.mode == "fbm":
        return {
            "theta_tilde": est.theta_tilde,
            "R_N": est.r_n,
            "iterations": est.iterations,
            "residual": est.residual,
            "D_N": est.d_n,
            "I_N": est.i_n,
            "omega_holds": est.omega_holds,
            "aci_lower": est.aci[0],
            "aci_upper": est.aci[1],
        }
    return {
        "theta_hat": est.theta_hat,
        "theta_hat_d": est.theta_hat_d,
        "D_Nn": est.d_nn,
        "V_Nn": est.v_nn,
        "ybar": est.ybar,
        "aci_lower": est.aci[0] if est.aci else None,
        "aci_upper": est.aci[1] if est.aci else None,
    }


def cmd_estimate(cfg: RunConfig, input_path: Optional[str]) -> int:
    e = cfg.experiment
    if input_path is not None:
        bundle = _read_bundle_csv(input_path)
    else:
        bundle = simulate_bundle(e, trial_rng(e, 0), e.n_max)
    text = _json_text(_estimate_record(cfg, bundle))
    print(text)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "estimate.json")
    _write_lines(out_path, [text])
    _log(cfg, f"wrote {out_path}")
    return EXIT_OK


def _write_summary(cfg: RunConfig, report) -> None:
    e = cfg.experiment
    header = "model,H,N_max,replications,mean_error,std_error,coverage,seconds"
    # RFC 4180: a cell that holds a comma (a custom model's coefficients) or a line
    # break (float() allows one around a coefficient) is double-quoted. A valid
    # model string holds no quote, which would need doubling.
    model = f'"{e.model}"' if any(ch in e.model for ch in ",\r\n") else e.model
    # Timings go to stderr; the file column is pinned to 0 so that output bytes
    # depend only on (config, seed), not on the machine or worker count.
    row = ",".join([
        model, _fmt(e.hurst), str(e.n_max), str(e.replications),
        _fmt(report.mean_error), _fmt(report.std_error),
        _fmt(report.coverage), _fmt(0.0),
    ])
    payload = {
        "model": e.model, "H": e.hurst, "N_max": e.n_max,
        "replications": e.replications, "mean_error": report.mean_error,
        "std_error": report.std_error, "coverage": report.coverage,
        "seconds": 0.0,
    }
    _write_report(cfg, "summary", [header, row], payload)


def _warn_untruncated(cfg: RunConfig, report, n: int) -> None:
    """Say on stderr when the estimates reported at N = n include some taken
    where Omega_N did not hold."""
    if report.omega_failed and not cfg.experiment.enforce_omega:
        print(f"warning: Omega_N did not hold at N = {n} in {report.omega_failed} of "
              f"{report.n_trials} trials; the reported estimates and intervals are the "
              f"untruncated ones (enforce_omega=true truncates them)", file=sys.stderr)


def _trajectory_lines(trials: np.ndarray, points: Sequence[int]) -> list[str]:
    """The header, then one block of rows per trial, filled from one %-template."""
    lines = ["trial,N,estimate,aci_lower,aci_upper"]
    for i, row in enumerate(trials):
        template = f"{i},%d,%.17g,%.17g,%.17g"
        values = zip(points, row["estimate"].tolist(), row["aci_lower"].tolist(),
                     row["aci_upper"].tolist())
        lines.append("\n".join([template] * len(points)) % tuple(itertools.chain(*values)))
    return lines


def _trajectory_payload(trials: np.ndarray, points: Sequence[int]) -> dict:
    return {
        "trials": [
            {
                "trial": i,
                "N": list(points),
                "estimate": row["estimate"].tolist(),
                "aci_lower": row["aci_lower"].tolist(),
                "aci_upper": row["aci_upper"].tolist(),
            }
            for i, row in enumerate(trials)
        ]
    }


def _write_report(cfg: RunConfig, name: str, lines: list[str], payload: dict) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{name}.{cfg.format}")
    _write_lines(path, lines if cfg.format == "csv" else [_json_text(payload)])
    _log(cfg, f"wrote {path}")


def cmd_experiment(cfg: RunConfig, workers: int) -> int:
    e = cfg.experiment
    start = time.perf_counter()
    report, trials = run_experiment(e, workers=workers)
    _log(cfg, f"experiment finished in {time.perf_counter() - start:.2f}s "
              f"(mean_error={report.mean_error:.6g})")
    _warn_untruncated(cfg, report, e.points[-1])
    _write_summary(cfg, report)
    # Only the written format's rows are built.
    if cfg.format == "csv":
        _write_report(cfg, "trajectories", _trajectory_lines(trials, e.points), {})
    else:
        _write_report(cfg, "trajectories", [], _trajectory_payload(trials, e.points))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, workers: int, grid_spec: str, n_fixed: Optional[int]) -> int:
    e = cfg.experiment
    thresholds = _parse_grid(grid_spec)
    n_fixed = n_fixed if n_fixed is not None else e.n_max
    if not 1 <= n_fixed <= e.n_max:
        raise ConfigError(f"--n-fixed: must lie in 1..n_max={e.n_max}, got {n_fixed}")
    start = time.perf_counter()
    curve, omega_failed = threshold_sweep(e, thresholds, n_fixed, workers=workers)
    _log(cfg, f"sweep finished in {time.perf_counter() - start:.2f}s")
    if omega_failed:
        print(f"warning: Omega_N did not hold at N = {n_fixed} in {omega_failed} of "
              f"{e.replications} trials; their truncated estimates are 0 at every threshold",
              file=sys.stderr)
    lines = ["threshold,mean_error"]
    for d, err in curve:
        lines.append(f"{_fmt(d)},{_fmt(err)}")
    payload = {"sweep": [{"threshold": d, "mean_error": err} for d, err in curve]}
    _write_report(cfg, "sweep", lines, payload)
    return EXIT_OK


def cmd_coverage(cfg: RunConfig, workers: int) -> int:
    start = time.perf_counter()
    report = coverage_experiment(cfg.experiment, workers=workers)
    _log(cfg, f"coverage run finished in {time.perf_counter() - start:.2f}s "
              f"(coverage={report.coverage:.3f})")
    _warn_untruncated(cfg, report, cfg.experiment.n_max)
    _write_summary(cfg, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fpdrift",
        description="Drift parameter estimation for (fractional) SDEs "
                    "from repeated observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "sample solution bundles and write them as CSV"),
        ("estimate", "one estimate record from a simulated or supplied bundle"),
        ("experiment", "replicated experiment: summary + trajectories"),
        ("sweep", "mean error versus truncation threshold"),
        ("coverage", "empirical confidence-interval coverage"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML/JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} if set, else config)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="parallel trial workers (default: the CPUs this process "
                            "may use); results do not depend on it when BLAS runs one "
                            "thread")
        if name == "estimate":
            p.add_argument("--input", default=None,
                           help="bundle CSV to estimate from (default: simulate)")
        if name == "sweep":
            p.add_argument("--grid", required=True, metavar="START:STEP:COUNT",
                           help="threshold grid specification")
            p.add_argument("--n-fixed", type=int, default=None,
                           help="prefix size at which errors are evaluated (default: n_max)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        workers = default_workers() if args.workers is None else args.workers
        if workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {workers}")
        seed = args.seed
        if seed is None and SEED_ENV_VAR in os.environ:
            try:
                seed = int(os.environ[SEED_ENV_VAR])
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from exc
        cfg = parse_config(path=args.config, overrides=args.set, seed=seed,
                           out_dir=args.out, fmt=args.format)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.input)
        if args.command == "experiment":
            return cmd_experiment(cfg, workers)
        if args.command == "sweep":
            return cmd_sweep(cfg, workers, args.grid, args.n_fixed)
        if args.command == "coverage":
            return cmd_coverage(cfg, workers)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateStatisticsError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryError as exc:
        # The fBm sampler and the fBm-mode estimators hold steps x steps arrays;
        # `run_trials` names replications where its result array does not fit.
        message = str(exc) or "MemoryError"
        if not message.startswith("replications: "):
            message = f"steps: out of memory for this grid ({message})"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FpdriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
