#!/usr/bin/env python3
"""Truncation-bounded scale functions for the beta-family.

Evaluates the lower/upper sandwiches for W, Z and W' on a grid for several
truncation levels m, writing one CSV per level plus a summary of the
per-level gap constants.
"""
import argparse
import csv
import pathlib

import numpy as np

from phscale.meromorphic import (
    BETA_BENCHMARK,
    BETA_BENCHMARK_Q,
    truncated_coefficients,
    w_bounds,
    w_prime_bounds,
    z_bounds,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--m", type=int, nargs="+", default=[10, 100])
    ap.add_argument("--q", type=float, default=BETA_BENCHMARK_Q)
    ap.add_argument("--x-max", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=500)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, args.x_max, args.points)
    summary = []
    for m in args.m:
        tm = truncated_coefficients(BETA_BENCHMARK, args.q, m)
        dest = out_dir / f"truncation_bounds_m{m}.csv"
        with dest.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["x", "w_lower", "w_upper", "z_lower", "z_upper",
                 "wp_lower", "wp_upper"]
            )
            pos = grid > 0
            wp = np.full((2, grid.size), np.nan)  # W' bounds exist for x > 0 only
            wp[:, pos] = w_prime_bounds(tm, grid[pos])
            for x, *vals in zip(grid, *w_bounds(tm, grid), *z_bounds(tm, grid), *wp):
                w.writerow([f"{x:.6f}"] + [f"{v:.10g}" for v in vals])
        summary.append((m, tm.delta))
        print(f"wrote {dest} (delta_{m} = {tm.delta:.4e})")

    with (out_dir / "truncation_bounds_summary.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "delta_m"])
        for m, d in summary:
            w.writerow([m, f"{d:.10g}"])


if __name__ == "__main__":
    main()
