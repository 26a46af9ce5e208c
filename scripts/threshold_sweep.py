#!/usr/bin/env python3
"""Mean error of the truncated estimator versus the truncation threshold,
at a fixed number of copies (N = 15), for both drift models at H = 0.9.

The error stays flat up to the recommended threshold and explodes towards
|theta0| once the threshold exceeds the observed values of D_N.

Usage: python3 scripts/threshold_sweep.py [--seed SEED] [--workers K]
"""

import argparse

from fpdrift import default_workers, parse_config, threshold_sweep

GRIDS = {
    # model: (start, step, count); horizon and sigma come from the model's preset
    "model1": (0.5, 0.1, 31),
    "model2": (1.0, 0.5, 31),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=default_workers())
    ap.add_argument("--n-fixed", type=int, default=15)
    args = ap.parse_args()

    for model, (start, step, count) in GRIDS.items():
        thresholds = [start + step * k for k in range(count)]
        cfg = parse_config(overrides=[
            f"model={model}", "H=0.9", f"n_max={args.n_fixed}",
            "replications=100", f"seed={args.seed}",
        ]).experiment
        curve, _ = threshold_sweep(cfg, thresholds, args.n_fixed, workers=args.workers)
        print(f"# {model}, H = 0.9, N = {args.n_fixed}")
        print("threshold,mean_error")
        for d, err in curve:
            print(f"{d:.4g},{err:.7f}")
        print()


if __name__ == "__main__":
    main()
