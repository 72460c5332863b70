"""Output checks, run after the timer stops.

``check(meta, text)`` parses one CLI output and returns
``(malformed, invalid_reasons, extras)``:

* ``malformed`` -- the output is not what the subcommand promises (missing
  columns, wrong row count, unparseable numbers). That is a failed request.
* ``invalid_reasons`` -- the output has the promised shape but a value breaks
  a property the mathematics guarantees. That is an invalid request.
* ``extras`` -- numbers other metrics need (identity residuals, MC estimates).

Tolerances only absorb rounding: ``PROB_TOL`` for probabilities at 0 and 1,
and ``MONO_RTOL`` times the largest |W| on the grid for W (whose value at
x = 0 is an exact zero when sigma > 0, reached by cancellation) and for
neighbouring grid values printed to 12 significant digits.
"""
from __future__ import annotations

import math

PROB_TOL = 1e-9
MONO_RTOL = 1e-11

COLUMNS = {
    "scale-eval": ["x", "w", "w_prime", "z"],
    "exit-prob": ["x", "b", "up_exit", "down_exit"],
    "overshoot": ["level", "density"],
    "undershoot": ["level", "density"],
    "joint": ["a_lo", "a_hi", "b_lo", "b_hi", "value"],
    "identities": ["identity", "residual", "status"],
    "mero-bounds": ["x", "w_lower", "w_upper", "z_lower", "z_upper", "wp_lower", "wp_upper"],
    "cgmy-limit": ["beta", "x", "lower", "upper"],
    "simulate-exit": ["kind", "value", "stderr", "ci_low", "ci_high"],
    "simulate-histogram": ["kind", "bin_center", "density", "stderr"],
}
TEXT_COLUMNS = frozenset(("identity", "status", "kind"))
ROWS = {"scale-eval": 401, "exit-prob": 1, "overshoot": 50, "undershoot": 50,
        "joint": 1, "mero-bounds": 500, "cgmy-limit": 3 * 201, "simulate-exit": 2}


def parse(text: str):
    """(columns, rows) of the CLI's CSV format; ``#`` metadata lines are skipped."""
    table = [line.split(",") for line in text.splitlines()
             if line and not line.startswith("# ")]
    if not table:
        raise ValueError("no header row")
    return table[0], table[1:]


def _prob(name, v, bad):
    if not (-PROB_TOL <= v <= 1.0 + PROB_TOL):
        bad.append(f"{name} outside [0,1]")


def check(meta: dict, text: str):
    cmd = meta["cmd"]
    kind = f"simulate-{meta['mode']}" if cmd == "simulate" else cmd
    try:
        columns, rows = parse(text)
        if columns != COLUMNS[kind]:
            raise ValueError(f"columns {columns}")
        if kind in ROWS and len(rows) != ROWS[kind]:
            raise ValueError(f"{len(rows)} rows, expected {ROWS[kind]}")
        if any(len(r) != len(columns) for r in rows):
            raise ValueError("ragged rows")
        cols = {c: [r[i] if c in TEXT_COLUMNS else float(r[i]) for r in rows]
                for i, c in enumerate(columns)}
    except (ValueError, KeyError) as exc:
        return str(exc), [], {}

    bad, extras = [], {}
    numeric = [c for c in columns if c not in TEXT_COLUMNS]
    if kind == "joint":
        numeric = ["value"]       # the window columns echo the input and may be inf
    for c in numeric:
        vals = cols[c]
        if kind == "mero-bounds" and c.startswith("wp_"):
            # W' bounds are defined for x > 0 only; the CLI writes nan at x = 0
            vals = [v for v, x in zip(vals, cols["x"]) if x > 0]
        if not all(math.isfinite(v) for v in vals):
            bad.append(f"non-finite {c}")

    if kind == "scale-eval":
        w = cols["w"]
        tol = MONO_RTOL * max((abs(v) for v in w if math.isfinite(v)), default=0.0)
        if any(v < -tol for v in w):
            bad.append("W < 0")
        if any(b < a - tol for a, b in zip(w, w[1:])):
            bad.append("W decreasing")
        if any(v < 1.0 - MONO_RTOL for v in cols["z"]):
            bad.append("Z < 1")
    elif kind == "exit-prob":
        up, down = cols["up_exit"][0], cols["down_exit"][0]
        _prob("up_exit", up, bad)
        _prob("down_exit", down, bad)
        if up + down > 1.0 + PROB_TOL:
            bad.append("up + down > 1")
    elif kind in ("overshoot", "undershoot", "simulate-histogram"):
        if any(v < 0 for v in cols["density"]):
            bad.append("density < 0")
    elif kind == "joint":
        _prob("joint", cols["value"][0], bad)
    elif kind == "identities":
        gated = [(n, r) for n, r, s in zip(cols["identity"], cols["residual"], cols["status"])
                 if s != "info"]
        failed = [n for n, s in zip(cols["identity"], cols["status"]) if s == "FAIL"]
        if failed:
            bad.append("FAIL " + "+".join(failed))
        extras["max_residual"] = max((r for _, r in gated), default=0.0)
    elif kind == "mero-bounds":
        for name in ("w", "z", "wp"):
            lo, hi = cols[f"{name}_lower"], cols[f"{name}_upper"]
            if any(a > b for a, b in zip(lo, hi)):
                bad.append(f"{name} lower > upper")
    elif kind == "cgmy-limit":
        if any(a > b for a, b in zip(cols["lower"], cols["upper"])):
            bad.append("lower > upper")
    elif kind == "simulate-exit":
        est = dict(zip(cols["kind"], zip(cols["value"], cols["stderr"])))
        if set(est) != {"up", "down"}:
            return "rows are not up/down", [], {}
        _prob("up", est["up"][0], bad)
        _prob("down", est["down"][0], bad)
        if est["up"][0] + est["down"][0] > 1.0 + PROB_TOL:
            bad.append("up + down > 1")
        extras["up"], extras["down"] = est["up"], est["down"]
    return None, sorted(set(bad)), extras
