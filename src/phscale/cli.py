"""Command-line front end.

Subcommands evaluate scale functions, exit probabilities, overshoot and
undershoot laws, meromorphic bounds, and the Monte Carlo oracle, emitting CSV
(with ``#`` metadata headers) or JSON.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import DomainError, ModelValidationError, NumericalFailure, UnsupportedRegime
from .fluctuation import (
    IntervalPair,
    conjecture_residuals,
    down_exit,
    joint_overshoot_undershoot,
    overshoot_density,
    undershoot_density,
    up_exit,
)
from .meromorphic import (
    BETA_BENCHMARK,
    BETA_BENCHMARK_Q,
    cgmy_limit_study,
    truncated_coefficients,
    w_bounds,
    w_prime_bounds,
    z_bounds,
)
from .mc import simulate_overshoot_undershoot, simulate_two_sided_exit
from .models import BUILTIN_JUMPS, SnLevyModel, builtin_model, load_model_file
from .scale import boundary_identities, build_scale
from .wiener_hopf import wh_factor_minus


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid spec must be start:stop:count, got {spec!r}")
    if not -math.inf < start <= stop < math.inf or count < 2:
        raise DomainError("grid requires finite start <= stop and count >= 2")
    return np.linspace(start, stop, count)


def _parse_window(spec: str) -> Tuple[float, float]:
    try:
        lo, hi = spec.split(":")
        return float(lo), float(hi)  # 'inf' accepted by float()
    except ValueError:
        raise DomainError(f"window must be lo:hi, got {spec!r}")


def _resolve_model(args) -> SnLevyModel:
    """The built-in model, with the ``--sigma/--mu/--lam`` given and the
    defaults of ``builtin_model`` for the rest, or the model file, which
    sets all three itself and so takes none of the flags."""
    name = args.model
    given = {k: v for k in ("sigma", "mu", "lam") if (v := getattr(args, k)) is not None}
    if name in BUILTIN_JUMPS:
        return builtin_model(name, **given)
    if name == "beta-benchmark":
        raise DomainError("beta-benchmark is only valid for mero-bounds/cgmy-limit")
    if given:
        flags = ", ".join(f"--{k}" for k in given)
        raise DomainError(f"{flags}: only for a built-in model; the model file {name!r} "
                          "sets drift, sigma and lambda")
    return load_model_file(name)


def _emit(args, table: dict, meta: dict) -> None:
    """Write ``table``, {column name: array or list} with equal lengths, and
    its metadata as one document, formatted in full before the output opens.
    A CSV float field is printed to 12 significant digits, any other field
    by ``str``; JSON carries the same Python values."""
    meta = {"version": __version__, **meta}
    arrays = [np.asarray(col) for col in table.values()]
    rows = list(zip(*(a.tolist() for a in arrays)))
    if args.format == "json":
        text = json.dumps({"config": meta, "columns": list(table), "rows": rows},
                          indent=2) + "\n"
    else:
        header = "".join(f"# {k}={v}\n" for k, v in meta.items()) + ",".join(table) + "\n"
        template = ",".join("%.12g" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
        text = header + "".join(map(template.__mod__, rows))
    if args.output:
        with open(args.output, "w") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, *, model: bool = True) -> None:
    if model:
        p.add_argument("--model", required=True, help="built-in name or model file path")
        builtin_only = "built-in models only (default %s)"
        p.add_argument("--sigma", type=float, help=builtin_only % 1.0)
        p.add_argument("--mu", type=float, help=builtin_only % 5.0)
        p.add_argument("--lam", type=float, help=builtin_only % 5.0)
    p.add_argument("--q", type=float, default=0.05, help="discount rate > 0")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``phscale`` parser, built on the first call and shared by every
    later call in the process: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="phscale",
        description="Scale functions and fluctuation identities for spectrally "
        "negative Levy processes with phase-type jumps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale-eval", help="W, W', Z on a grid")
    _add_common(p)
    p.add_argument("--grid", required=True, help="start:stop:count")

    p = sub.add_parser("exit-prob", help="two-sided exit probabilities")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = sub.add_parser("overshoot", help="overshoot density on a grid")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("undershoot", help="undershoot density on a grid")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("joint", help="joint overshoot/undershoot window probability")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a-window", required=True, help="lo:hi (overshoot magnitudes)")
    p.add_argument("--b-window", required=True, help="lo:hi (undershoot positions)")

    p = sub.add_parser("mero-bounds", help="truncated bounds for the beta-family")
    _add_common(p, model=False)
    p.add_argument("--model", default="beta-benchmark")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--grid", required=True)
    p.set_defaults(q=BETA_BENCHMARK_Q)

    p = sub.add_parser("cgmy-limit", help="beta -> 0 convergence study")
    _add_common(p, model=False)
    p.add_argument("--tilde-alpha", type=float, default=3.0)
    p.add_argument("--tilde-c", type=float, default=0.1)
    p.add_argument("--betas", default="1,0.5,0.1", help="comma-separated decreasing")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--grid", required=True)
    p.set_defaults(q=BETA_BENCHMARK_Q)

    p = sub.add_parser("simulate", help="Monte Carlo first-passage oracle")
    _add_common(p)
    p.add_argument("--mode", choices=("exit", "histogram"), default="exit")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n-paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bin-width", type=float, default=0.1)

    p = sub.add_parser("identities", help="identity residual report")
    _add_common(p)

    return ap


def _cmd_scale_eval(args) -> None:
    model = _resolve_model(args)
    sf = build_scale(model, args.q)
    grid = _parse_grid(args.grid)
    wp = np.where(grid == 0, sf.wp0, 0.0)  # W = 0 below 0; the x -> 0+ limit at 0
    wp[grid > 0] = sf.w_prime(grid[grid > 0])
    _emit(args, {"x": grid, "w": sf.w(grid), "w_prime": wp, "z": sf.z(grid)},
          {"command": "scale-eval", "model": args.model, "q": args.q,
           "sigma": model.sigma, "mu": model.mu, "lam": model.lam})


def _cmd_exit_prob(args) -> None:
    model = _resolve_model(args)
    sf = build_scale(model, args.q)
    u = up_exit(sf, args.x, args.b)
    d = down_exit(sf, args.x, args.b)
    _emit(args, {"x": [args.x], "b": [args.b], "up_exit": [u], "down_exit": [d]},
          {"command": "exit-prob", "model": args.model, "q": args.q,
           "sigma": model.sigma, "mu": model.mu, "lam": model.lam})


def _cmd_density(args, kind: str) -> None:
    model = _resolve_model(args)
    sf = build_scale(model, args.q)
    fn = overshoot_density if kind == "overshoot" else undershoot_density
    grid = _parse_grid(args.grid)
    grid = grid[grid > 0]
    _emit(args, {"level": grid, "density": fn(sf, args.x, grid)},
          {"command": kind, "model": args.model, "q": args.q, "x": args.x,
           "sigma": model.sigma, "mu": model.mu, "lam": model.lam})


def _cmd_joint(args) -> None:
    model = _resolve_model(args)
    sf = build_scale(model, args.q)
    a_lo, a_hi = _parse_window(args.a_window)
    b_lo, b_hi = _parse_window(args.b_window)
    val = joint_overshoot_undershoot(sf, args.x, IntervalPair(a_lo, a_hi, b_lo, b_hi))
    _emit(args, {"a_lo": [a_lo], "a_hi": [a_hi], "b_lo": [b_lo], "b_hi": [b_hi],
                 "value": [val]},
          {"command": "joint", "model": args.model, "q": args.q, "x": args.x,
           "sigma": model.sigma, "mu": model.mu, "lam": model.lam})


def _cmd_mero_bounds(args) -> None:
    if args.model != "beta-benchmark":
        raise DomainError("mero-bounds currently supports the beta-benchmark model only")
    tm = truncated_coefficients(BETA_BENCHMARK, args.q, args.m)
    grid = _parse_grid(args.grid)
    pos = grid > 0
    wp = np.full((2, grid.size), np.nan)  # W' bounds exist for x > 0 only
    wp[:, pos] = w_prime_bounds(tm, grid[pos])
    names = ("x", "w_lower", "w_upper", "z_lower", "z_upper", "wp_lower", "wp_upper")
    _emit(args, dict(zip(names, (grid, *w_bounds(tm, grid), *z_bounds(tm, grid), *wp))),
          {"command": "mero-bounds", "model": args.model, "q": args.q,
           "m": args.m, "delta_m": tm.delta})


def _cmd_cgmy(args) -> None:
    try:
        betas = [float(v) for v in args.betas.split(",")]
    except ValueError:
        raise DomainError(f"betas must be comma-separated numbers, got {args.betas!r}")
    grid = _parse_grid(args.grid)
    study = cgmy_limit_study(BETA_BENCHMARK, args.tilde_alpha, args.tilde_c,
                             betas, args.q, args.m, grid)
    curves = study["curves"]
    diag = {}
    for d in study["sup_diffs"]:
        pair = "_".join(map(str, d["beta_pair"]))
        diag[f"sup_diff_{pair}"] = d["upper_sup_diff"]
        diag[f"lower_sup_diff_{pair}"] = d["lower_sup_diff"]
    _emit(args, {"beta": np.repeat(betas, grid.size), "x": np.tile(grid, len(betas)),
                 "lower": np.concatenate([curves[b]["lower"] for b in betas]),
                 "upper": np.concatenate([curves[b]["upper"] for b in betas])},
          {"command": "cgmy-limit", "q": args.q, "m": args.m,
           "tilde_alpha": args.tilde_alpha, "tilde_c": args.tilde_c, **diag})


def _cmd_simulate(args) -> None:
    model = _resolve_model(args)
    meta = {"command": "simulate", "mode": args.mode, "model": args.model,
            "q": args.q, "x": args.x, "n_paths": args.n_paths, "seed": args.seed,
            "sigma": model.sigma, "mu": model.mu, "lam": model.lam}
    if args.mode == "exit":
        if args.b is None:
            raise DomainError("--b is required for exit simulation")
        u, d = simulate_two_sided_exit(model, args.q, args.x, args.b,
                                       args.n_paths, args.seed)
        _emit(args, {"kind": ["up", "down"], "value": [u.value, d.value],
                     "stderr": [u.stderr, d.stderr], "ci_low": [u.ci95[0], d.ci95[0]],
                     "ci_high": [u.ci95[1], d.ci95[1]]},
              {**meta, "b": args.b, "scheme": u.scheme})
    else:
        if args.b is not None:
            raise DomainError("--b is for exit simulation only")
        oh, uh = simulate_overshoot_undershoot(model, args.q, args.x,
                                               args.bin_width, args.n_paths,
                                               args.seed)
        sizes = [oh.centers.size, uh.centers.size]
        _emit(args, {"kind": np.repeat(["overshoot", "undershoot"], sizes),
                     "bin_center": np.concatenate([oh.centers, uh.centers]),
                     "density": np.concatenate([oh.density, uh.density]),
                     "stderr": np.concatenate([oh.stderr, uh.stderr])},
              {**meta, "bin_width": args.bin_width, "scheme": oh.scheme})


def _cmd_identities(args) -> None:
    model = _resolve_model(args)
    report = identities_report(model, args.q)
    residuals, gates = zip(*report.values())
    _emit(args, {"identity": list(report), "residual": residuals,
                 "status": ["pass" if ok else "FAIL" for ok in gates]},
          {"command": "identities", "model": args.model, "q": args.q,
           "sigma": model.sigma, "mu": model.mu, "lam": model.lam})


def identities_report(model: SnLevyModel, q: float) -> dict:
    """Residuals of the structural identities, as {name: (residual, pass)}."""
    sf = build_scale(model, q)
    out = {}
    res = abs(model.laplace_exponent(sf.zeta) - q)
    out["psi_zeta_minus_q"] = (res, res < 1e-10 * max(1.0, q))
    b = boundary_identities(sf)
    out["sum_c"] = (b["sum_c_rel_err"], b["sum_c_rel_err"] < 1e-8)
    out["zeta_over_q"] = (b["zeta_identity_rel_err"], b["zeta_identity_rel_err"] < 1e-8)
    # q/(q - psi(s)) = zeta/(zeta - s) phi_q_minus(s) on (-xi_1, zeta), away
    # from s = 0, where both sides are 1 by construction; a pure drift has no
    # xi_1, and -1 stands in for the left end
    s = np.linspace(-0.9 * sf.xi.real.min() if sf.xi.size else -1.0, 0.9 * sf.zeta, 7)
    s = s[s != 0]
    lhs = q / (q - model.laplace_exponent(s))
    rhs = sf.zeta / (sf.zeta - s) * wh_factor_minus(sf.decomp, s)
    wh = float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
    out["wh_factorisation"] = (wh, wh < 1e-10)
    s = np.linspace(sf.zeta + 0.5, sf.zeta + 10.0, 20)
    target = 1.0 / (model.laplace_exponent(s) - q)
    lt_err = float(np.max(np.abs(sf.laplace_transform_w(s) - target) / np.abs(target)))
    out["laplace_transform"] = (lt_err, lt_err < 1e-8)
    at_poles = max(conjecture_residuals(sf), default=0.0)
    out["laplace_at_poles"] = (at_poles, at_poles < 1e-10)
    return out


_DISPATCH = {
    "scale-eval": _cmd_scale_eval,
    "exit-prob": _cmd_exit_prob,
    "overshoot": lambda a: _cmd_density(a, "overshoot"),
    "undershoot": lambda a: _cmd_density(a, "undershoot"),
    "joint": _cmd_joint,
    "mero-bounds": _cmd_mero_bounds,
    "cgmy-limit": _cmd_cgmy,
    "simulate": _cmd_simulate,
    "identities": _cmd_identities,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except (ModelValidationError, DomainError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, UnsupportedRegime) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
