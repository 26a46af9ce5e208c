"""Traced run: spans around fpdrift's layers, a replay of every trial, and the
per-layer metrics derived from both.

Spans are recorded from the benchmark's side of each layer boundary, never
inside the program. For every CLI call the traced run records:

- ``config.parse`` around ``parse_config``;
- ``cli.main`` around the CLI call and ``montecarlo.run_trials`` around the
  ``run_trials`` call it makes (the module attribute is wrapped for the
  duration of the call);
- a serial replay of the call's trials from public functions:
  ``montecarlo.trial`` > ``fbm.sample``, ``sde.euler``, ``estimators.build``
  and one ``estimators.solve`` per evaluated prefix size N.

The replay must reproduce the CLI's output files digit for digit, so the trace
describes the program that the untraced run timed.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

REPLAY_SPANS = ("montecarlo.trial", "fbm.sample", "sde.euler", "estimators.build",
                "estimators.solve")


def fmt(x: float) -> str:
    """The CLI's float format: 17 significant digits."""
    return format(float(x), ".17g")


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, call, trial]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build_peak_bytes = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, call: int, trial: str | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, call, trial])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def seconds(self, index: int) -> float:
        _, start, end, *_ = self.spans[index]
        return (end - start) / 1e9

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [self.seconds(i) for i in range(len(self.spans))]
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                own[span[3]] -= self.seconds(i)
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_seconds()
        rows = [{"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                 "call": call, "trial": trial, "self_s": own[i]}
                for i, (name, start, end, parent, call, trial) in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}, indent=0))


@contextmanager
def traced_run_trials(tracer: Tracer, call: int):
    from fpdrift import montecarlo

    original = montecarlo.run_trials

    def run_trials(*args, **kwargs):
        with tracer.span("montecarlo.run_trials", call):
            return original(*args, **kwargs)

    montecarlo.run_trials = run_trials
    try:
        yield
    finally:
        montecarlo.run_trials = original


def traced_cli(tracer: Tracer, wl, call: dict, out: str, workers: int) -> tuple[float, float]:
    """Run the CLI once; return (cli.main self time, run_trials time) in seconds."""
    from fpdrift import cli

    argv = wl.argv(call["seed"], out, workers)
    with traced_run_trials(tracer, call["index"]):
        with tracer.span("cli.main", call["index"]) as index:
            code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fpdrift {' '.join(argv)} exited {code}")
    inner = [i for i in range(index + 1, len(tracer.spans))
             if tracer.spans[i][0] == "montecarlo.run_trials"]
    if len(inner) != 1:
        raise SystemExit(f"expected one run_trials call inside cli.main, saw {len(inner)}")
    run_s = tracer.seconds(inner[0])
    return tracer.seconds(index) - run_s, run_s


def traced_call(tracer: Tracer, wl, call: dict, work: Path) -> None:
    """One CLI call with its spans, its serial twin if pooled, and its replay."""
    from fpdrift.config import parse_config

    with tracer.span("config.parse", call["index"]) as index:
        cfg = parse_config(overrides=wl.overrides, seed=call["seed"])
    call["parse_s"] = tracer.seconds(index)
    call["cli_self_s"], call["run_s"] = traced_cli(tracer, wl, call, call["out"], wl.workers)
    call["bytes"] = sum(p.stat().st_size for p in Path(call["out"]).iterdir())
    call["serial_run_s"] = call["run_s"]
    if wl.workers > 1:
        call["serial_out"] = str(work / f"call{call['index']}-serial")
        _, call["serial_run_s"] = traced_cli(tracer, wl, call, call["serial_out"], 1)
    first = len(tracer.spans)
    rows = replay(tracer, wl, cfg.experiment, call["index"])
    call["replay_s"] = sum(tracer.seconds(i) for i in range(first, len(tracer.spans))
                           if tracer.spans[i][3] is None)
    check_replay(wl, cfg.experiment, rows, Path(call["out"]))


def replay(tracer: Tracer, wl, e, call: int) -> list[tuple]:
    """Every trial of one CLI call rebuilt from public calls, serially.

    Returns (trial, N, estimate, aci_lower, aci_upper) rows, NaN where the
    evaluation failed, in the order the CLI writes them.
    """
    import numpy as np
    from fpdrift import (BmEstimatorCache, CrossCorrelation, DegenerateStatisticsError,
                         DivergenceError, FbmEstimatorCache, SdeSpec, euler_additive,
                         sample_fbm_bundle)

    if e.corr_block != 1 or e.fresh_paths_per_n:
        raise SystemExit("the replay covers independent copies with prefix reuse only")
    grid, hurst, drift = e.grid(), e.hurst_params(), e.drift()
    spec = SdeSpec(x0=e.x0, theta0=e.theta0, sigma=e.sigma, drift=drift,
                   hurst=hurst, grid=grid)
    points = e.points if wl.command == "experiment" else (e.n_max,)
    nan = float("nan")
    rows = []
    for i in range(e.replications):
        trial = f"{e.seed}:{i}"
        with tracer.span("montecarlo.trial", call, trial):
            rng = np.random.default_rng(np.random.SeedSequence(e.seed, spawn_key=(i,)))
            with tracer.span("fbm.sample", call, trial):
                noise = sample_fbm_bundle(hurst, grid, CrossCorrelation.identity(e.n_max), rng)
            with tracer.span("sde.euler", call, trial):
                paths = euler_additive(spec, noise)
            tracemalloc.start()
            with tracer.span("estimators.build", call, trial):
                if e.mode == "fbm":
                    cache = FbmEstimatorCache(paths, drift, hurst, e.sigma)
                else:
                    cache = BmEstimatorCache(paths, drift, sigma=e.sigma)
            tracer.build_peak_bytes = max(tracer.build_peak_bytes,
                                          tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            for n in points:
                row = (i, n, nan, nan, nan)
                with tracer.span("estimators.solve", call, trial):
                    try:
                        if e.mode == "fbm":
                            est = cache.estimate(
                                n, c=e.contraction, d_threshold=e.d_threshold,
                                alpha=e.alpha, enforce_omega=e.enforce_omega,
                                max_iters=e.max_iters, tol=e.tol)
                            row = (i, n, est.theta_tilde, est.aci[0], est.aci[1])
                            tracer.counts["picard_iters"] += est.iterations
                            # One Phi_N evaluation per iteration plus the residual's.
                            tracer.counts["phi_evals"] += est.iterations + 1
                            tracer.counts["omega"] += est.omega_holds
                        else:
                            est = cache.estimate(n, d_threshold=e.d_threshold, alpha=e.alpha)
                            aci = est.aci or (nan, nan)
                            row = (i, n, est.theta_hat, aci[0], aci[1])
                            tracer.counts["omega"] += 1  # no certificate is needed at H = 1/2
                    except (DegenerateStatisticsError, DivergenceError):
                        tracer.counts["failed"] += 1
                tracer.counts["solves"] += 1
                rows.append(row)
    return rows


def check_replay(wl, e, rows: list[tuple], out: Path) -> None:
    """The replay must match the CLI's files exactly."""
    from fpdrift.montecarlo import summarize

    final = {trial: (est, lo, hi) for trial, _, est, lo, hi in rows}
    errors = [abs(est - e.theta0) for est, _, _ in final.values()]
    mean, std = summarize(errors)
    coverage = sum(bool(lo <= e.theta0 <= hi) for _, lo, hi in final.values()) / len(final)
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    if row[4:7] != [fmt(mean), fmt(std), fmt(coverage)]:
        raise SystemExit(f"replay summary {fmt(mean)},{fmt(std)},{fmt(coverage)} "
                         f"differs from {out / 'summary.csv'}: {','.join(row[4:7])}")
    if wl.command == "experiment":
        expected = [f"{t},{n},{fmt(est)},{fmt(lo)},{fmt(hi)}" for t, n, est, lo, hi in rows]
        written = (out / "trajectories.csv").read_text().splitlines()[1:]
        if written != expected:
            bad = next((k for k, (a, b) in enumerate(zip(written, expected)) if a != b),
                       min(len(written), len(expected)))
            raise SystemExit(f"replay differs from {out / 'trajectories.csv'} at data row {bad}")


def _p90(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10)[-1]


def layer_metrics(tracer: Tracer, wl, calls: list[dict]) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    from fpdrift.config import parse_config

    e = parse_config(overrides=wl.overrides).experiment
    own = tracer.self_seconds()
    total = Counter()
    solves_ms = []
    for i, span in enumerate(tracer.spans):
        if span[0] in REPLAY_SPANS:
            total[span[0]] += own[i]
        if span[0] == "estimators.solve":
            solves_ms.append(tracer.seconds(i) * 1e3)
    trials = sum(1 for span in tracer.spans if span[0] == "montecarlo.trial")
    serial_total = sum(total.values())

    def median(key: str) -> float:
        return statistics.median(c[key] for c in calls)

    run_s = median("run_s")
    serial_layer_s = median("replay_s")
    counts = tracer.counts
    solves = counts["solves"]
    return {
        "estimators.solve_ms_per_trial": (total["estimators.solve"] / trials * 1e3, "ms"),
        "estimators.solve_ms_p50": (statistics.median(solves_ms), "ms"),
        "estimators.solve_ms_p90": (_p90(solves_ms), "ms"),
        "estimators.solves": (solves, "count"),
        "estimators.picard_iters": (counts["picard_iters"], "count"),
        "estimators.phi_evals": (counts["phi_evals"], "count"),
        "estimators.omega_frac": (counts["omega"] / solves, "frac"),
        "estimators.failed": (counts["failed"], "count"),
        "estimators.build_ms_per_trial": (total["estimators.build"] / trials * 1e3, "ms"),
        "estimators.build_peak_mb": (tracer.build_peak_bytes / 2**20, "MB"),
        "fbm.sample_ms_per_trial": (total["fbm.sample"] / trials * 1e3, "ms"),
        "fbm.flops_computed": (e.steps**3 / 3 + 2 * e.n_max * e.steps**2, "flop/trial"),
        "sde.euler_ms_per_trial": (total["sde.euler"] / trials * 1e3, "ms"),
        "sde.loop_steps": (e.steps, "count/trial"),
        "montecarlo.run_s": (run_s, "s"),
        "montecarlo.serial_layer_s": (serial_layer_s, "s"),
        "montecarlo.parallel_efficiency": (serial_layer_s / (wl.workers * run_s), "frac"),
        "config.parse_ms": (median("parse_s") * 1e3, "ms"),
        "cli.overhead_s": (median("cli_self_s"), "s"),
        "cli.bytes_written": (median("bytes"), "B"),
        "trace.overhead_frac": (sum(c["replay_s"] for c in calls)
                                / sum(c["serial_run_s"] for c in calls), "frac"),
        "share.estimators.solve": (total["estimators.solve"] / serial_total, "frac"),
        "share.estimators.build": (total["estimators.build"] / serial_total, "frac"),
        "share.fbm_sde": ((total["fbm.sample"] + total["sde.euler"]) / serial_total, "frac"),
    }
