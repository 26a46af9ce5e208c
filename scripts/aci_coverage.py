#!/usr/bin/env python3
"""Empirical coverage of the asymptotic confidence intervals.

Runs the H > 1/2 interval on the Ornstein-Uhlenbeck model and the H = 1/2
least-squares interval on the same model with a finer grid, and reports the
fraction of replications whose interval contains theta0.

Usage: python3 scripts/aci_coverage.py [--seed SEED] [--workers K]
"""

import argparse

from fpdrift import coverage_experiment, default_workers, parse_config


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=default_workers())
    args = ap.parse_args()

    fbm_cfg = parse_config(overrides=[
        "model=model2", "H=0.9", "n_max=50", "replications=100", f"seed={args.seed}",
    ]).experiment
    bm_cfg = parse_config(overrides=[
        "model=model2", "H=0.5", "mode=bm", "n_max=200", "steps=200",
        "replications=200", f"seed={args.seed}",
    ]).experiment
    for label, cfg in [("fbm (H=0.9, N=50)", fbm_cfg), ("bm (H=0.5, N=200)", bm_cfg)]:
        report = coverage_experiment(cfg, workers=args.workers)
        print(f"{label}: coverage = {report.coverage:.3f} "
              f"(target >= {1 - cfg.alpha:.2f} asymptotically)")


if __name__ == "__main__":
    main()
