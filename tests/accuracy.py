"""Accuracy of the closed-form pipeline against 50-digit mpmath references.

Run from the repository root:

    PYTHONPATH=src python tests/accuracy.py [--output ACCURACY_3.json] [--before OLD.json]

For each cell (jump law, sigma, q), with mu = lambda = 5, it writes the worst
relative error of each quantity to the JSON file and prints the same numbers
as a Markdown table.  The jump laws are the built-ins, ``closed_forms.COXIAN``
(``coxian``) and the 40-rate diagonal generator of the CI's small-rate step
(``diag40``).  The quantities are zeta and every xi, ``lead`` and every C_i,
W, W' and Z of ``evaluate`` at the points ``XS`` wherever W is finite in
doubles, D = ``down_exit_unbounded`` at those points up to 20, and the up-
and down-exit probabilities at x = 1, b = 3.  The references are the
50-digit roots and residues of ``closed_forms.mp_residue_terms`` (each root
refined by ``mp_refine``; a diagonal generator such as ``diag40`` on the psi
of ``mp_diagonal_psi``, as ``mp_ph_psi`` takes about 47 s for its roots), the
residue sums W and Z of ``closed_forms.mp_scale`` and W'(x) = sum_r r e^{r x}
/ psi'(r) over the same terms.  D(x) = Z(x) - (q/zeta) W(x) is taken as the same residue sum with its
e^{zeta x} terms and constant cancelled in closed form:
q sum_{r != zeta} e^{r x} (zeta - r) / (r zeta psi'(r)), the constant
1 - q sum_r 1/(r psi'(r)) being 0 by partial fractions of 1/(psi(s) - q) at
s = 0.  The down-exit reference is D(x) - (W(x)/W(b)) D(b).

A quantity that raises records the name of its error type instead of a
number.  With ``--before`` an earlier output (say, of the same script run
against the parent commit's ``src/``), each cell also keeps, under
``before``, the values of that output that differ from its own.  The
script measures: no test reads its output, and pytest does not collect it.
"""
import argparse
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from closed_forms import COXIAN, mp_residue_terms, mp_scale  # noqa: E402
from phscale import build_scale  # noqa: E402
from phscale.fluctuation import down_exit, down_exit_unbounded, up_exit  # noqa: E402
from phscale.models import BUILTIN_JUMPS, PhaseTypeRepr, SnLevyModel  # noqa: E402

DPS = 50
MODELS = ("exp1", "weibull-fit", "pareto-fit")
_RATES = np.geomspace(1e-9, 1e-7, 40)  # det T = 1e-320, condition number 100
LAWS = {**{m: BUILTIN_JUMPS[m] for m in MODELS}, "coxian": COXIAN,
        "diag40": PhaseTypeRepr(alpha=(1 / 40,) * 40, T=tuple(map(tuple, np.diag(-_RATES))))}
# first cut (ACCURACY_1.json); sigma = 1, q = 1e3 for exp1: the outer
# bracket's far end doubles twice
CELLS = [(m, s, q) for m in MODELS for s in (0.0, 1.0) for q in (1e-3, 0.05, 100.0)]
CELLS.append(("exp1", 1.0, 1e3))
# second cut: the ends of the q range; exp1 has zero mean drift (mu = lambda
# E[Y]), so zeta ~ sqrt(q), down to where its roots lose digits; a Coxian
# (non-diagonal T) and the 40 tiny rates
CELLS += [(m, s, q) for m in MODELS for s in (0.0, 1.0) for q in (1e-12, 1e3)
          if (m, s, q) != ("exp1", 1.0, 1e3)]
CELLS += [("exp1", s, q) for s in (0.0, 1.0) for q in (1e-13, 1e-21, 1e-29)]
CELLS += [("coxian", s, 0.05) for s in (0.0, 1.0)] + [("diag40", 1.0, 0.05)]
# third cut: the Coxian where the eigenvalue linearisation rounds q away
CELLS += [("coxian", s, q) for s in (0.0, 1.0) for q in (1e-20, 1e-30)]
XS = (1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 50.0)
D_MAX_X = 20.0
EXIT_X, EXIT_B = 1.0, 3.0
QUANTITIES = ("zeta", "xi", "lead", "C", "W", "Wp", "Z", "D", "up_exit", "down_exit")
OUTPUT = Path(__file__).resolve().parent.parent / "ACCURACY_3.json"


def worst(got, ref) -> float:
    """max |got - ref| / |ref| over paired values, real or complex, to 3
    significant digits."""
    err = max(abs(mpmath.mpmathify(complex(g) if np.iscomplexobj(g) else float(g)) - r) / abs(r)
              for g, r in zip(got, ref, strict=True))
    return float(f"{float(err):.3g}")


def measure(name: str, sigma: float, q: float) -> dict:
    """{quantity: worst relative error, or the error type's name} of one cell."""
    model = SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=LAWS[name])
    with mpmath.workdps(DPS):
        try:  # the references; the whole cell fails with them
            terms = mp_residue_terms(model, q)
            _, w, z = mp_scale(model, q)
            zeta, lead = terms[0]

            def wp(x):
                return mpmath.re(mpmath.fsum(c * r * mpmath.exp(r * x) for r, c in terms))

            def d(x):
                return q * mpmath.re(mpmath.fsum(c * mpmath.exp(r * x) * (zeta - r) / (r * zeta)
                                                 for r, c in terms[1:]))

            wx = np.array([x for x in XS if abs(w(x)) < sys.float_info.max])
            dx = np.array([x for x in XS if x <= D_MAX_X])
            up = w(EXIT_X) / w(EXIT_B)
            refs = {"zeta": [zeta], "xi": [-r for r, _ in terms[1:]], "lead": [lead],
                    "C": [-c for _, c in terms[1:]], "W": [w(x) for x in wx],
                    "Wp": [wp(x) for x in wx], "Z": [z(x) for x in wx], "D": [d(x) for x in dx],
                    "up_exit": [up], "down_exit": [d(EXIT_X) - up * d(EXIT_B)]}
            sf = build_scale(model, q)
        except Exception as exc:
            return dict.fromkeys(QUANTITIES, type(exc).__name__)
        got = {
            "zeta": lambda: [sf.zeta], "xi": lambda: sf.xi, "lead": lambda: [sf.lead],
            "C": lambda: sf.C, "W": lambda: sf.evaluate(wx)[0],
            "Wp": lambda: sf.evaluate(wx)[1], "Z": lambda: sf.evaluate(wx)[2],
            "D": lambda: down_exit_unbounded(sf, dx),
            "up_exit": lambda: [up_exit(sf, EXIT_X, EXIT_B)],
            "down_exit": lambda: [down_exit(sf, EXIT_X, EXIT_B)],
        }
        out = {}
        for key in QUANTITIES:
            try:
                out[key] = worst(got[key](), refs[key])
            except Exception as exc:  # this quantity fails
                out[key] = type(exc).__name__
    return out


def _cell(v) -> str:
    return v if isinstance(v, str) else f"{v:.2g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=OUTPUT)
    parser.add_argument("--before", type=Path, help="an earlier output to keep the moved values of")
    args = parser.parse_args(argv)
    cells = [{"model": m, "sigma": s, "q": q, **measure(m, s, q)} for m, s, q in CELLS]
    for cell in cells:  # strict JSON has no inf or nan
        cell.update({k: str(v) for k, v in cell.items()
                     if isinstance(v, float) and not math.isfinite(v)})
    if args.before:
        old = {(c["model"], c["sigma"], c["q"]): c
               for c in json.loads(args.before.read_text())["cells"]}
        for cell in cells:
            prev = old.get((cell["model"], cell["sigma"], cell["q"]), {})
            if moved := {k: prev[k] for k in QUANTITIES if k in prev and prev[k] != cell[k]}:
                cell["before"] = moved
    record = {
        "reference": f"mpmath at {DPS} digits: tests/closed_forms.py mp_residue_terms, "
                     "mp_refine and mp_scale",
        "metric": "worst relative error per quantity and cell",
        "models": "mu = lambda = 5; jump laws: the built-ins, coxian = tests/closed_forms.py "
                  "COXIAN, diag40 = alpha 1/40, T = -diag(geomspace(1e-9, 1e-7, 40))",
        "x": list(XS), "d_max_x": D_MAX_X, "exit": {"x": EXIT_X, "b": EXIT_B},
        "cells": cells,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    print("| model | sigma | q | " + " | ".join(QUANTITIES) + " |")
    print("|" + "---|" * (3 + len(QUANTITIES)))
    for c in cells:
        print(f"| {c['model']} | {c['sigma']:g} | {c['q']:g} | "
              + " | ".join(_cell(c[k]) for k in QUANTITIES) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
