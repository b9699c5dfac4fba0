#!/usr/bin/env python3
"""Sweep the Monte Carlo oracle over correlations, variance ratios and seeds.

Prints one line per (rho, variance ratio, seed) combination with the worst
absolute error across statistics and the overall pass flag, then a summary.
Exits 1 if any evaluated statistic fails anywhere in the sweep.

Example:
    python scripts/run_validation.py --samples 500000 --alpha 0.99 --seeds 1 2 3
"""

import argparse
import math
import sys

from gaussrisk import GaussianPair, McConfig, validate_closed_forms
from gaussrisk.mc import SharedDraw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=500_000)
    parser.add_argument("--alpha", type=float, default=0.99)
    parser.add_argument("--bandwidth", type=float, default=0.05)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rhos", type=float, nargs="+", default=[-0.8, -0.4, 0.0, 0.4, 0.8])
    parser.add_argument("--ratios", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    args = parser.parse_args(argv)

    grid = [(rho, var_a) for rho in args.rhos for var_a in args.ratios]
    # One draw per seed serves every pair of the grid; one draw is held at a time.
    reports = {}
    for k, seed in enumerate(args.seeds):
        draw = SharedDraw(McConfig(
            sample_count=args.samples, bandwidth=args.bandwidth, seed=seed, alpha=args.alpha,
        ))
        for j, (rho, var_a) in enumerate(grid):
            pair = GaussianPair(0.0, 0.0, 1.0, var_a, rho * math.sqrt(var_a))
            reports[j, k] = validate_closed_forms(pair, draw)
        del draw

    print(f"{'rho':>5} {'var_a':>6} {'seed':>5} {'evaluated':>9} {'worst_err':>10} {'status':>7}")
    all_ok = True
    for j, (rho, var_a) in enumerate(grid):
        for k, seed in enumerate(args.seeds):
            report = reports[j, k]
            evaluated = report.evaluated
            worst = max((c.abs_error for c in evaluated), default=float("nan"))
            status = "pass" if report.all_passed else "FAIL"
            all_ok &= report.all_passed
            print(
                f"{rho:>5.2f} {var_a:>6.2f} {seed:>5} "
                f"{len(evaluated):>4}/{len(report.checks):<4} {worst:>10.5f} {status:>7}"
            )
    print("sweep:", "all passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
