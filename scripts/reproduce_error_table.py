#!/usr/bin/env python3
"""Reproduce the reference error table: mean and std of |theta_tilde_50 - theta0|
over 100 replications for both drift models at H = 0.7 and H = 0.9.

Usage: python3 scripts/reproduce_error_table.py [--seed SEED] [--workers K]
"""

import argparse
import time

from fpdrift import default_workers, parse_config, run_experiment

CASES = [
    ("model1", 0.7),
    ("model1", 0.9),
    ("model2", 0.7),
    ("model2", 0.9),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=default_workers())
    ap.add_argument("--replications", type=int, default=100)
    args = ap.parse_args()

    print(f"{'model':8s} {'H':>4s} {'mean error':>12s} {'std error':>12s} {'seconds':>8s}")
    for model, h in CASES:
        cfg = parse_config(overrides=[
            f"model={model}", f"H={h}", "n_max=50", "eval_points=50",
            f"replications={args.replications}", f"seed={args.seed}",
        ]).experiment
        t0 = time.perf_counter()
        report, _ = run_experiment(cfg, workers=args.workers)
        dt = time.perf_counter() - t0
        print(f"{model:8s} {h:4.1f} {report.mean_error:12.7f} "
              f"{report.std_error:12.7f} {dt:8.2f}")


if __name__ == "__main__":
    main()
