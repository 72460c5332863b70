#!/usr/bin/env python3
"""Two-sided exit benchmark table.

For each built-in jump model and sigma in {1, 0}, computes the discounted
up-exit probability at x = 1..4 (b = 5, q = 0.05, mu = 5, lambda = 5) in
closed form and by Monte Carlo on the paper's 100-substep grid, writing one
CSV row per cell with the analytic value, the MC estimate, and its 95%
confidence interval.
"""
import argparse
import csv
import pathlib

from phscale.fluctuation import up_exit
from phscale.mc import simulate_two_sided_exit
from phscale.models import builtin_model
from phscale.scale import build_scale


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/exit_probability_table.csv")
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--q", type=float, default=0.05)
    ap.add_argument("--b", type=float, default=5.0)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["model", "sigma", "x", "analytic", "mc", "ci_low", "ci_high"]
        )
        for name in ("exp1", "weibull-fit", "pareto-fit"):
            for sigma in (1.0, 0.0):
                model = builtin_model(name, sigma=sigma)
                sf = build_scale(model, args.q)
                for x in (1.0, 2.0, 3.0, 4.0):
                    analytic = up_exit(sf, x, args.b)
                    est, _ = simulate_two_sided_exit(
                        model, args.q, x, args.b, args.n_paths, seed=args.seed,
                        substeps=100,
                    )
                    w.writerow(
                        [name, sigma, x, f"{analytic:.6f}", f"{est.value:.6f}",
                         f"{est.ci95[0]:.6f}", f"{est.ci95[1]:.6f}"]
                    )
                    print(
                        f"{name} sigma={sigma} x={x}: analytic {analytic:.5f}"
                        f" mc {est.value:.5f} ({est.ci95[0]:.5f}, {est.ci95[1]:.5f})"
                    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
