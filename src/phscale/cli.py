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
    scale_bounds,
    truncated_coefficients,
)
from .mc import _MAX_BINS, simulate_overshoot_undershoot, simulate_two_sided_exit
from .models import BUILTIN_JUMPS, SnLevyModel, builtin_model, load_model_file
from .roots import _RESIDUAL_TOL
from .scale import ScaleFunction, boundary_identities, build_scale
from .wiener_hopf import wh_factor_minus


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid spec must be start:stop:count, got {spec!r}")
    if not -math.inf < start <= stop < math.inf or count < 2:
        raise DomainError("grid requires finite start <= stop and count >= 2")
    if count > _MAX_BINS:  # refused before linspace allocates the points
        raise DomainError(f"grid count {count} exceeds {_MAX_BINS}")
    if stop - start == math.inf:  # linspace would step by inf and return NaN
        raise DomainError(f"grid span {stop} - {start} exceeds the float range")
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
        raise DomainError("beta-benchmark is only valid for mero-bounds")
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

    for kind in ("overshoot", "undershoot"):
        p = sub.add_parser(kind, help=f"{kind} density on a grid")
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


def _closed_form(args) -> Tuple[SnLevyModel, ScaleFunction]:
    """The model of a closed-form command and its scale function at ``--q``."""
    model = _resolve_model(args)
    return model, build_scale(model, args.q)


def _model_meta(args, model: SnLevyModel, **extra) -> dict:
    """command, model, q, ``extra`` (x, where the command takes one), sigma, mu, lam."""
    return {"command": args.command, "model": args.model, "q": args.q, **extra,
            "sigma": model.sigma, "mu": model.mu, "lam": model.lam}


def _cmd_scale_eval(args):
    model, sf = _closed_form(args)
    grid = _parse_grid(args.grid)
    return (dict(zip(("x", "w", "w_prime", "z"), (grid, *sf.evaluate(grid)))),
            _model_meta(args, model))


def _cmd_exit_prob(args):
    model, sf = _closed_form(args)
    return ({"x": [args.x], "b": [args.b], "up_exit": [up_exit(sf, args.x, args.b)],
             "down_exit": [down_exit(sf, args.x, args.b)]}, _model_meta(args, model))


def _cmd_density(args):
    model, sf = _closed_form(args)
    fn = overshoot_density if args.command == "overshoot" else undershoot_density
    grid = _parse_grid(args.grid)
    grid = grid[grid > 0]
    return ({"level": grid, "density": fn(sf, args.x, grid)},
            _model_meta(args, model, x=args.x))


def _cmd_joint(args):
    model, sf = _closed_form(args)
    a_lo, a_hi = _parse_window(args.a_window)
    b_lo, b_hi = _parse_window(args.b_window)
    val = joint_overshoot_undershoot(sf, args.x, IntervalPair(a_lo, a_hi, b_lo, b_hi))
    return ({"a_lo": [a_lo], "a_hi": [a_hi], "b_lo": [b_lo], "b_hi": [b_hi], "value": [val]},
            _model_meta(args, model, x=args.x))


def _cmd_mero_bounds(args):
    if args.model != "beta-benchmark":
        raise DomainError("mero-bounds currently supports the beta-benchmark model only")
    tm = truncated_coefficients(BETA_BENCHMARK, args.q, args.m)
    grid = _parse_grid(args.grid)
    names = ("x", "w_lower", "w_upper", "z_lower", "z_upper", "wp_lower", "wp_upper")
    return (dict(zip(names, (grid, *scale_bounds(tm, grid)))),
            {"command": "mero-bounds", "model": args.model, "q": args.q,
             "m": args.m, "delta_m": tm.delta})


def _cmd_cgmy(args):
    try:
        betas = [float(v) for v in args.betas.split(",")]
    except ValueError:
        raise DomainError(f"betas must be comma-separated numbers, got {args.betas!r}")
    grid = _parse_grid(args.grid)
    study = cgmy_limit_study(BETA_BENCHMARK, args.tilde_alpha, args.tilde_c,
                             betas, args.q, args.m, grid)
    diag = {}
    for b1, b2, upper, lower in zip(betas, betas[1:], study["upper_sup_diff"].tolist(),
                                    study["lower_sup_diff"].tolist()):
        diag[f"sup_diff_{b1}_{b2}"] = upper
        diag[f"lower_sup_diff_{b1}_{b2}"] = lower
    return ({"beta": np.repeat(betas, grid.size), "x": np.tile(grid, len(betas)),
             "lower": study["lower"].ravel(), "upper": study["upper"].ravel()},
            {"command": "cgmy-limit", "q": args.q, "m": args.m,
             "tilde_alpha": args.tilde_alpha, "tilde_c": args.tilde_c, **diag})


def _cmd_simulate(args):
    model = _resolve_model(args)
    meta = {"command": "simulate", "mode": args.mode, "model": args.model,
            "q": args.q, "x": args.x, "n_paths": args.n_paths, "seed": args.seed,
            "sigma": model.sigma, "mu": model.mu, "lam": model.lam}
    if args.mode == "exit":
        if args.b is None:
            raise DomainError("--b is required for exit simulation")
        u, d = simulate_two_sided_exit(model, args.q, args.x, args.b,
                                       args.n_paths, args.seed)
        return ({"kind": ["up", "down"], "value": [u.value, d.value],
                 "stderr": [u.stderr, d.stderr], "ci_low": [u.ci95[0], d.ci95[0]],
                 "ci_high": [u.ci95[1], d.ci95[1]]},
                {**meta, "b": args.b, "scheme": u.scheme})
    if args.b is not None:
        raise DomainError("--b is for exit simulation only")
    oh, uh = simulate_overshoot_undershoot(model, args.q, args.x, args.bin_width,
                                           args.n_paths, args.seed)
    sizes = [oh.centers.size, uh.centers.size]
    return ({"kind": np.repeat(["overshoot", "undershoot"], sizes),
             "bin_center": np.concatenate([oh.centers, uh.centers]),
             "density": np.concatenate([oh.density, uh.density]),
             "stderr": np.concatenate([oh.stderr, uh.stderr])},
            {**meta, "bin_width": args.bin_width, "scheme": oh.scheme})


def _cmd_identities(args):
    model = _resolve_model(args)
    report = identities_report(model, args.q)
    residuals, gates = zip(*report.values())
    return ({"identity": list(report), "residual": residuals,
             "status": ["pass" if ok else "FAIL" for ok in gates]},
            _model_meta(args, model))


def identities_report(model: SnLevyModel, q: float) -> dict:
    """Residuals of the structural identities, as {name: (residual, pass)}."""
    sf = build_scale(model, q)
    out = {}
    res = abs(model.laplace_exponent(sf.zeta) - q)
    out["psi_zeta_minus_q"] = (res, res < _RESIDUAL_TOL * max(1.0, q))
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


# each command returns its table and metadata, which main writes with _emit
_DISPATCH = {
    "scale-eval": _cmd_scale_eval,
    "exit-prob": _cmd_exit_prob,
    "overshoot": _cmd_density,
    "undershoot": _cmd_density,
    "joint": _cmd_joint,
    "mero-bounds": _cmd_mero_bounds,
    "cgmy-limit": _cmd_cgmy,
    "simulate": _cmd_simulate,
    "identities": _cmd_identities,
}


def _join_grid(argv: Sequence[str]) -> list:
    """argv with ``--grid SPEC`` as ``--grid=SPEC``: argparse would read a
    SPEC that starts with a minus sign, such as -1:1:5, as an option."""
    out: list = []
    for arg in argv:
        if out and out[-1] == "--grid":
            out[-1] = "--grid=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(_join_grid(sys.argv[1:] if argv is None else argv))
    try:
        _emit(args, *_DISPATCH[args.command](args))
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
