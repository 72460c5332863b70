#!/usr/bin/env python3
"""Scale function curves.

Evaluates W, W' and Z on a grid for each built-in jump model and
sigma in {1, 0}, writing one CSV per (model, sigma) pair.
"""
import argparse
import pathlib

import numpy as np

from phscale.models import builtin_model
from phscale.scale import build_scale


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--q", type=float, default=0.05)
    ap.add_argument("--x-max", type=float, default=4.0)
    ap.add_argument("--points", type=int, default=401)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, args.x_max, args.points)
    for name in ("exp1", "weibull-fit", "pareto-fit"):
        for sigma in (1.0, 0.0):
            sf = build_scale(builtin_model(name, sigma=sigma), args.q)
            dest = out_dir / f"scale_{name}_sigma{sigma:g}.csv"
            wp = np.full(grid.size, sf.wp0)  # the x -> 0+ limit at x = 0
            wp[grid > 0] = sf.w_prime(grid[grid > 0])
            # csv-module layout: a header row and CRLF line ends
            np.savetxt(dest, np.column_stack([grid, sf.w(grid), wp, sf.z(grid)]),
                       fmt=["%.6f", "%.10g", "%.10g", "%.10g"], delimiter=",",
                       newline="\r\n", header="x,w,w_prime,z", comments="")
            print(f"wrote {dest}")


if __name__ == "__main__":
    main()
