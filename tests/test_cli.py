"""Command-line interface: output formats, values, and exit codes."""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import phscale
import phscale.cli as cli
from phscale.cli import _emit, build_parser, identities_report, main
from phscale.models import BUILTIN_JUMPS, PARETO_FIT, PhaseTypeRepr, SnLevyModel, builtin_model
from phscale.scale import build_scale

from closed_forms import as_phase_type, coxian_laws


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            k, v = line[2:].split("=", 1)
            meta[k] = v
        elif line:
            lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    return meta, rows


@pytest.mark.parametrize("argv", [
    ("scale-eval", "--model", "exp1", "--grid", "0:2:5"),
    ("scale-eval", "--model", "pareto-fit", "--sigma", "0", "--grid", "0:3:4"),
    ("exit-prob", "--model", "weibull-fit", "--x", "1", "--b", "5"),
    ("overshoot", "--model", "exp1", "--sigma", "0", "--x", "5", "--grid", "0:2:5"),
    ("undershoot", "--model", "weibull-fit", "--x", "2", "--grid", "0:4:6"),
    ("joint", "--model", "exp1", "--x", "3", "--a-window", "0:inf", "--b-window", "0.5:2"),
    ("mero-bounds", "--m", "10", "--grid", "0:1:6"),
    ("cgmy-limit", "--betas", "1,0.5", "--m", "10", "--grid", "0:1:4"),
    ("simulate", "--model", "exp1", "--x", "2", "--b", "5", "--n-paths", "2000", "--seed", "3"),
    ("simulate", "--model", "exp1", "--sigma", "0", "--x", "2", "--mode", "histogram",
     "--n-paths", "2000", "--bin-width", "0.5"),
    ("identities", "--model", "weibull-fit"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:6]))
def test_csv_prints_the_json_values_to_12_digits(capsys, argv):
    # the same metadata, columns and rows in both formats: a CSV float field
    # is the JSON value to 12 significant digits, any other field its str
    code_csv, text, _ = run(capsys, *argv)
    code_json, doc, _ = run(capsys, *argv, "--format", "json")
    assert code_csv == code_json == 0
    doc = json.loads(doc)
    lines = text.splitlines()
    assert [l for l in lines if l.startswith("# ")] == [
        f"# {k}={v}" for k, v in doc["config"].items()]
    table = [l.split(",") for l in lines if not l.startswith("# ")]
    assert table[0] == doc["columns"]
    assert len(table) - 1 == len(doc["rows"]) > 0
    for fields, row in zip(table[1:], doc["rows"]):
        assert fields == [f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]


# the metadata lines and the column line of one request per command, as
# text: a reordered or renamed key fails; "=*" stands for a computed float
HEADERS = [
    (("scale-eval", "--model", "exp1", "--sigma", "0.5", "--mu", "3", "--lam", "2",
      "--grid", "0:2:3"),
     ["command=scale-eval", "model=exp1", "q=0.05", "sigma=0.5", "mu=3.0", "lam=2.0"],
     "x,w,w_prime,z"),
    (("exit-prob", "--model", "weibull-fit", "--q", "0.1", "--x", "1", "--b", "5"),
     ["command=exit-prob", "model=weibull-fit", "q=0.1", "sigma=1.0", "mu=5.0", "lam=5.0"],
     "x,b,up_exit,down_exit"),
    (("overshoot", "--model", "exp1", "--sigma", "0", "--x", "5", "--grid", "0:2:3"),
     ["command=overshoot", "model=exp1", "q=0.05", "x=5.0", "sigma=0.0", "mu=5.0",
      "lam=5.0"],
     "level,density"),
    (("undershoot", "--model", "weibull-fit", "--mu", "4", "--x", "2", "--grid", "0:4:3"),
     ["command=undershoot", "model=weibull-fit", "q=0.05", "x=2.0", "sigma=1.0", "mu=4.0",
      "lam=5.0"],
     "level,density"),
    (("joint", "--model", "exp1", "--lam", "6", "--x", "3", "--a-window", "0:inf",
      "--b-window", "0.5:2"),
     ["command=joint", "model=exp1", "q=0.05", "x=3.0", "sigma=1.0", "mu=5.0", "lam=6.0"],
     "a_lo,a_hi,b_lo,b_hi,value"),
    (("mero-bounds", "--m", "10", "--grid", "0:1:3"),
     ["command=mero-bounds", "model=beta-benchmark", "q=0.03", "m=10", "delta_m=*"],
     "x,w_lower,w_upper,z_lower,z_upper,wp_lower,wp_upper"),
    (("cgmy-limit", "--betas", "1,0.5", "--m", "10", "--grid", "0:1:3"),
     ["command=cgmy-limit", "q=0.03", "m=10", "tilde_alpha=3.0", "tilde_c=0.1",
      "sup_diff_1.0_0.5=*", "lower_sup_diff_1.0_0.5=*"],
     "beta,x,lower,upper"),
    (("simulate", "--model", "exp1", "--x", "2", "--b", "5", "--n-paths", "200",
      "--seed", "3"),
     ["command=simulate", "mode=exit", "model=exp1", "q=0.05", "x=2.0", "n_paths=200",
      "seed=3", "sigma=1.0", "mu=5.0", "lam=5.0", "b=5.0", "scheme=bridge"],
     "kind,value,stderr,ci_low,ci_high"),
    (("simulate", "--model", "exp1", "--sigma", "0", "--x", "2", "--mode", "histogram",
      "--n-paths", "200", "--bin-width", "0.5"),
     ["command=simulate", "mode=histogram", "model=exp1", "q=0.05", "x=2.0",
      "n_paths=200", "seed=0", "sigma=0.0", "mu=5.0", "lam=5.0", "bin_width=0.5",
      "scheme=drift"],
     "kind,bin_center,density,stderr"),
    (("identities", "--model", "pareto-fit", "--mu", "4", "--lam", "6", "--q", "0.1"),
     ["command=identities", "model=pareto-fit", "q=0.1", "sigma=1.0", "mu=4.0", "lam=6.0"],
     "identity,residual,status"),
]


@pytest.mark.parametrize("argv, meta, columns", HEADERS,
                         ids=[h[0][0] + ("-histogram" if "histogram" in h[0] else "")
                              for h in HEADERS])
def test_metadata_lines_literally(capsys, argv, meta, columns):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    expected = [f"# version={phscale.__version__}"] + [f"# {m}" for m in meta]
    head = lines[:len(expected)]
    for line, want in zip(head, expected):
        if want.endswith("=*"):
            key, value = line.split("=", 1)
            assert key + "=*" == want and math.isfinite(float(value))
        else:
            assert line == want
    assert len(head) == len(expected)
    assert lines[len(expected)] == columns


def _cgmy_rows(mid, end):
    """cgmy-limit rows of the three default betas on the grid 0, mid, end:
    the bounds at 0 and inf past it."""
    return [row for beta, w in (("1", "2.98518450954"), ("0.5", "3.98653802921"),
                                ("0.1", "5.54768343303"))
            for row in (f"{beta},0,-{w},{w}", f"{beta},{mid},inf,inf", f"{beta},{end},inf,inf")]


# valid points whose products leave the float range, where the result is the
# limit: W = inf, e^{-xi x} = 0, a bridge image floored at e^{-708}; under the
# suite's error::RuntimeWarning filter a warning on the way fails the run
@pytest.mark.parametrize("argv, rows", [
    (("scale-eval", "--model", "exp1", "--grid", "0:1e308:3"),
     ["0,0,2,1", "5e+307,inf,inf,inf", "1e+308,inf,inf,inf"]),
    (("exit-prob", "--model", "exp1", "--x", "1", "--b", "1e308"),
     ["1,1e+308,0,0.836397822814"]),
    (("mero-bounds", "--m", "5", "--grid", "0:1e308:3"),
     ["0,-2.98518450954,2.98518450954,1,1,nan,nan", "5e+307,inf,inf,inf,inf,inf,inf",
      "1e+308,inf,inf,inf,inf,inf,inf"]),
    (("mero-bounds", "--m", "5", "--grid", "0:1.7e308:3"),
     ["0,-2.98518450954,2.98518450954,1,1,nan,nan", "8.5e+307,inf,inf,inf,inf,inf,inf",
      "1.7e+308,inf,inf,inf,inf,inf,inf"]),
    (("cgmy-limit", "--m", "5", "--grid", "0:1e308:3"), _cgmy_rows("5e+307", "1e+308")),
    (("cgmy-limit", "--m", "5", "--grid", "0:1.7e308:3"), _cgmy_rows("8.5e+307", "1.7e+308")),
    (("overshoot", "--model", "exp1", "--q", "100", "--x", "1e308", "--grid", "1:2:3"),
     ["1,0", "1.5,0", "2,0"]),
    (("undershoot", "--model", "exp1", "--x", "1e308", "--grid", "1:1e308:3"),
     ["1,0", "5e+307,0", "1e+308,0"]),
    (("joint", "--model", "exp1", "--q", "100", "--x", "1e308",
      "--a-window", "0:inf", "--b-window", "0:inf"), ["0,inf,0,inf,0"]),
    (("simulate", "--model", "exp1", "--x", "1e300", "--b", "1e301", "--n-paths", "10"),
     ["up,0,0,0,0", "down,0,0,0,0"]),
    (("simulate", "--model", "exp1", "--x", "1e300", "--mode", "histogram",
      "--n-paths", "10", "--bin-width", "1e299"),
     [f"undershoot,{(k + 0.5) * 1e299:.12g},0,0" for k in range(20)]),
    # subnormal points, where ln 2 / x and 1 / x overflow to inf
    (("scale-eval", "--model", "exp1", "--grid", "0:1e-320:3"),
     ["0,0,2,1", "4.99994433591e-321,9.99988867183e-321,2,1",
      "9.99988867183e-321,1.99997773437e-320,2,1"]),
    (("mero-bounds", "--m", "5", "--grid", "0:1e-310:3"),
     ["0,-2.98518450954,2.98518450954,1,1,nan,nan",
      "5e-311,-2.98518450954,2.98518450954,1,1,33.9410954226,72.6531553096",
      "1e-310,-2.98518450954,2.98518450954,1,1,33.9410954226,72.6531553096"]),
], ids=("scale-eval", "exit-prob", "mero-bounds", "mero-bounds-1.7e308", "cgmy-limit",
        "cgmy-limit-1.7e308", "overshoot", "undershoot", "joint", "simulate-exit",
        "simulate-histogram", "scale-eval-subnormal", "mero-bounds-subnormal"))
def test_overflow_to_the_limit_prints_no_warning(capsys, argv, rows):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [l for l in lines if not l.startswith("# ")][1:] == rows
    if argv[0] == "cgmy-limit":  # two curves past the float range differ unboundedly
        assert [l for l in lines if "sup_diff" in l] == [
            f"# {kind}sup_diff_{pair}=inf" for pair in ("1.0_0.5", "0.5_0.1")
            for kind in ("", "lower_")]


EDGE_TABLE = {"x": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2],
              "name": list("abcdef"), "n": [1, -2, 3, 40, 5, 6]}
EDGE_CSV = f"""# version={phscale.__version__}
# command=demo
x,name,n
nan,a,1
inf,b,-2
-inf,c,3
-0,d,40
1e-300,e,5
0.3,f,6
"""
EDGE_ROWS = [["NaN", '"a"', "1"], ["Infinity", '"b"', "-2"], ["-Infinity", '"c"', "3"],
             ["-0.0", '"d"', "40"], ["1e-300", '"e"', "5"], ["0.30000000000000004", '"f"', "6"]]


def _json_text(columns, rows):
    # json.dumps(..., indent=2) layout, written out by hand
    config = (f'  "config": {{\n    "version": "{phscale.__version__}",\n'
              '    "command": "demo"\n  },\n')
    cols = ",\n".join(f'    "{c}"' for c in columns)
    body = ",\n".join("    [\n" + ",\n".join(f"      {v}" for v in r) + "\n    ]" for r in rows)
    body = f"[\n{body}\n  ]" if rows else "[]"
    return f'{{\n{config}  "columns": [\n{cols}\n  ],\n  "rows": {body}\n}}\n'


@pytest.mark.parametrize("fmt, table, expected", [
    ("csv", EDGE_TABLE, EDGE_CSV),
    ("json", EDGE_TABLE, _json_text(["x", "name", "n"], EDGE_ROWS)),
    ("csv", {"x": [], "name": []},
     f"# version={phscale.__version__}\n# command=demo\nx,name\n"),
    ("json", {"x": [], "name": []}, _json_text(["x", "name"], [])),
])
def test_emit_bytes(tmp_path, fmt, table, expected):
    # floats to 12 significant digits in CSV (nan, inf, -0 as Python formats
    # them) and as repr in JSON; text and integer columns by str
    dest = tmp_path / f"out.{fmt}"
    _emit(SimpleNamespace(format=fmt, output=str(dest)), table, {"command": "demo"})
    assert dest.read_bytes() == expected.encode()


@pytest.mark.parametrize("target", ["", "missing/out.csv"], ids=["directory", "missing-dir"])
def test_unwritable_output_is_validation_error(capsys, tmp_path, target):
    dest = tmp_path / target
    code, out, err = run(capsys, "exit-prob", "--model", "exp1", "--x", "1", "--b", "5",
                         "--output", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert not any(tmp_path.iterdir())  # nothing written


def test_one_parser_per_process(tmp_path):
    # every call reuses the parser; the default q = 0.03 of mero-bounds must
    # not carry over into a later exit-prob call
    argv = ["exit-prob", "--model", "exp1", "--x", "1", "--b", "5", "--output"]
    build_parser.cache_clear()
    assert main(argv + [str(tmp_path / "first.csv")]) == 0
    assert main(["mero-bounds", "--grid", "0:1:3", "--output", str(tmp_path / "mero.csv")]) == 0
    assert main(argv + [str(tmp_path / "second.csv")]) == 0
    second = (tmp_path / "second.csv").read_bytes()
    assert b"# q=0.05\n" in second
    assert second == (tmp_path / "first.csv").read_bytes()
    assert build_parser() is build_parser()


def test_every_subcommand_has_a_handler():
    # main calls the parsed subcommand's run default: a subcommand added
    # without one fails here, not at its first call
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name


@pytest.mark.parametrize("argv", [
    # non-finite model parameters and discount rates
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--sigma", "nan"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--sigma", "inf"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--mu", "nan"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--lam", "nan"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--lam", "inf"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--q", "nan"),
    ("scale-eval", "--model", "exp1", "--grid", "0:1:3", "--q", "inf"),
    ("cgmy-limit", "--betas", "1,nan", "--m", "5", "--grid", "0:1:3"),
    # non-finite positions
    ("overshoot", "--model", "exp1", "--x", "nan", "--grid", "0.5:2:3"),
    ("undershoot", "--model", "exp1", "--x", "nan", "--grid", "0.5:2:3"),
    ("joint", "--model", "exp1", "--x", "nan", "--a-window", "0:1", "--b-window", "0:1"),
    ("exit-prob", "--model", "exp1", "--x", "inf", "--b", "inf"),
    ("scale-eval", "--model", "exp1", "--grid", "0:nan:3"),
    ("mero-bounds", "--m", "5", "--grid", "0:inf:3"),
    ("simulate", "--model", "exp1", "--mode", "histogram", "--x", "1", "--n-paths", "10",
     "--bin-width", "nan"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--model", "exp1")))
def test_non_finite_input_is_validation_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


class TestExitProb:
    def test_benchmark_value(self, capsys):
        code, out, _ = run(
            capsys, "exit-prob", "--model", "exp1", "--x", "1", "--b", "5"
        )
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["command"] == "exit-prob"
        assert float(rows[0]["up_exit"]) == pytest.approx(0.30312, abs=5e-6)

    def test_infinite_barrier_is_the_limit(self, capsys):
        downs = []
        for b in ("inf", "1e300"):
            code, out, _ = run(capsys, "exit-prob", "--model", "exp1", "--x", "1", "--b", b)
            assert code == 0
            downs.append(parse_csv(out)[1][0]["down_exit"])
        assert downs == ["0.836397822814"] * 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "exit-prob", "--model", "exp1", "--x", "1", "--b", "5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["x", "b", "up_exit", "down_exit"]
        idx = doc["columns"].index("up_exit")
        assert doc["rows"][0][idx] == pytest.approx(0.30312, abs=5e-6)

    def test_infinite_barrier_with_complex_roots(self, capsys, tmp_path):
        # a generator with a conjugate pair of roots: at x = inf a rate a + 0j
        # once made the tile inf * 0 = NaN, and exit-prob printed nan,nan; so
        # did a finite barrier whose product x * rate leaves the float range
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "drift": 5.0, "sigma": 1.0, "lambda": 5.0,
            "jump": {"type": "phase_type", "alpha": [0.5, 0.3, 0.2],
                     "T": [[-3.0, 2.5, 0.0], [0.0, -2.0, 1.9], [3.5, 0.0, -4.0]]}}))
        rows = []
        for b in ("inf", "1e300", "1e308"):
            code, out, err = run(capsys, "exit-prob", "--model", str(path), "--x", "1",
                                 "--b", b)
            assert (code, err) == (0, "")
            rows.append(parse_csv(out)[1][0])
        assert [(r["up_exit"], r["down_exit"]) for r in rows] == [("0", "0.981349971549")] * 3
        # under the suite's error::RuntimeWarning filter: no warning on the way
        code, out, err = run(capsys, "exit-prob", "--model", str(path), "--x", "1e308",
                             "--b", "1e308")
        assert (code, err) == (0, "") and out.splitlines()[-1] == "1e+308,1e+308,1,0"
        code, out, err = run(capsys, "scale-eval", "--model", str(path), "--grid", "0:1e308:3")
        assert (code, err) == (0, "")
        assert out.splitlines()[-3:] == ["0,0,2,1", "5e+307,inf,inf,inf", "1e+308,inf,inf,inf"]

    # the zeta bracket's powers of two overflow psi at sigma = 1e150; both
    # cells fail later, with the messages of the one-at-a-time doubling
    @pytest.mark.parametrize("argv, message", [
        (("--sigma", "1e150"), "s=-1.0000000000004547 within tolerance of pole -1.0"),
        (("--sigma", "1e-150", "--q", "1e6"),
         "outer root beyond the float range, near 1.9999999999999999e+301"),
    ])
    def test_extreme_sigma_keeps_its_refusal(self, capsys, argv, message):
        code, out, err = run(capsys, "exit-prob", "--model", "exp1", *argv, "--x", "1",
                             "--b", "5")
        assert (code, out, err) == (3, "", f"numerical failure: {message}\n")

    def test_x_above_barrier_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "exit-prob", "--model", "exp1", "--x", "6", "--b", "5"
        )
        assert code == 2
        assert "error" in err

    def test_forty_rate_phase_type_file_matches_hyperexp(self, capsys, tmp_path):
        # rates geometric in [1e-9, 1e-7]: det T = 1e-320, condition number 100
        rates = np.geomspace(1e-9, 1e-7, 40).tolist()
        laws = {"ph": {"type": "phase_type", "alpha": [1 / 40] * 40,
                       "T": np.diag(-np.asarray(rates)).tolist()},
                "hyperexp": {"type": "hyperexp", "p": [1 / 40] * 40, "eta": rates}}
        rows = {}
        for kind, jump in laws.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"drift": 5.0, "sigma": 1.0, "lambda": 5.0, "jump": jump}))
            code, out, _ = run(capsys, "exit-prob", "--model", str(path), "--x", "1", "--b", "5")
            assert code == 0
            rows[kind] = parse_csv(out)[1]
        assert rows["ph"] == rows["hyperexp"]
        assert float(rows["ph"][0]["up_exit"]) == pytest.approx(0.02477, abs=5e-6)


class TestScaleEval:
    def test_csv_grid(self, capsys):
        code, out, _ = run(
            capsys, "scale-eval", "--model", "exp1", "--grid", "0:2:5"
        )
        assert code == 0
        meta, rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0]["x"]) == 0.0
        # sigma = 1 boundary values: W(0) = 0, W'(0+) = 2/sigma^2
        assert float(rows[0]["w"]) == pytest.approx(0.0, abs=1e-15)
        assert float(rows[0]["w_prime"]) == pytest.approx(2.0, rel=1e-10)
        ws = [float(r["w"]) for r in rows]
        assert ws == sorted(ws)

    def test_w_prime_is_zero_below_zero(self, capsys):
        # W = 0 on x < 0, so W' is 0 there; x = 0 carries W'(0+) = 2/sigma^2
        code, out, _ = run(capsys, "scale-eval", "--model", "exp1", "--grid=-1:1:5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["w_prime"]) for r in rows[:2]] == [0.0, 0.0]
        assert [float(r["w"]) for r in rows[:2]] == [0.0, 0.0]
        assert float(rows[2]["w_prime"]) == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("argv", [
        ("scale-eval", "--model", "exp1"),
        ("mero-bounds", "--m", "5"),
    ], ids=lambda argv: argv[0])
    def test_grid_below_zero_as_its_own_argument(self, capsys, argv):
        # argparse reads a value that starts with "-" as an option unless it is
        # joined to --grid; main joins it first, so both spellings are one grid
        code, out, err = run(capsys, *argv, "--grid", "-1:1:5")
        assert (code, out, err) == run(capsys, *argv, "--grid=-1:1:5")
        assert code == (0 if argv[0] == "scale-eval" else 2)

    @pytest.mark.parametrize("sigma", ("1e-200", "1e200"))
    @pytest.mark.parametrize("argv", [
        ("scale-eval", "--grid", "0:1:3"),
        ("exit-prob", "--x", "1", "--b", "5"),
        ("simulate", "--x", "1", "--b", "5", "--n-paths", "10"),
    ], ids=lambda argv: argv[0])
    def test_sigma_square_out_of_range_is_validation_error(self, capsys, argv, sigma):
        # sigma^2 underflows to 0 or overflows: 2 mu / sigma^2 and
        # sigma^2 s^2 / 2 would be meaningless
        code, _, err = run(capsys, argv[0], "--model", "exp1", "--sigma", sigma, *argv[1:])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("sigma", ("1e-60", "1e-100", "1e-150"))
    def test_tiny_sigma_gives_the_sigma_zero_values_or_fails(self, capsys, sigma):
        # the outer root near 2 mu / sigma^2 is beyond the float range of the
        # secant steps: either it is solved, and W and Z are those of sigma = 0,
        # or the run fails with one line, with no NumPy warning on the way
        argv = ("scale-eval", "--model", "exp1", "--grid", "0.5:3:3")
        code, out, err = run(capsys, *argv, "--sigma", sigma)
        if code == 3:
            assert err.startswith("numerical failure:") and err.count("\n") == 1
            return
        assert code == 0
        _, rows = parse_csv(out)
        _, ref = parse_csv(run(capsys, *argv, "--sigma", "0")[1])
        for r, e in zip(rows, ref):
            for key in ("w", "z"):
                assert float(r[key]) == pytest.approx(float(e[key]), rel=1e-9)

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "scale-eval", "--model", "exp1", "--grid", "0:1:3",
            "--output", str(dest),
        )
        assert code == 0 and out == ""
        meta, rows = parse_csv(dest.read_text())
        assert len(rows) == 3 and meta["model"] == "exp1"

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "scale-eval", "--model", "exp1", "--grid", "2:0:5"
        )
        assert code == 2

    def test_unknown_model(self, capsys):
        code, _, err = run(
            capsys, "scale-eval", "--model", "no-such-model.json", "--grid", "0:1:3"
        )
        assert code == 2

    def test_model_file(self, capsys, tmp_path):
        spec = {
            "drift": 5.0, "sigma": 1.0, "lambda": 5.0,
            "jump": {"type": "hyperexp", "p": [1.0], "eta": [1.0]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(
            capsys, "scale-eval", "--model", str(path), "--grid", "0:1:3"
        )
        assert code == 0
        # same law as the built-in, so same values
        _, ref = parse_csv(
            run(capsys, "scale-eval", "--model", "exp1", "--grid", "0:1:3")[1]
        )
        _, got = parse_csv(out)
        for a, b in zip(ref, got):
            assert float(a["w"]) == pytest.approx(float(b["w"]), rel=1e-12)

    @pytest.mark.parametrize("drift, jump", [
        ("abc", {"type": "hyperexp", "p": [1.0], "eta": [1.0]}),
        (5.0, {"type": "hyperexp", "p": 5, "eta": [1.0]}),
        (5.0, {"type": "hyperexp", "p": ["a"], "eta": [1.0]}),
        (5.0, {"type": "phase_type", "alpha": [0.5, 0.5], "T": [[-1.0, 0.0], [-1.0]]}),
        (5.0, {"type": "phase_type", "alpha": [1.0], "T": [-1.0]}),
        (True, {"type": "hyperexp", "p": [1.0], "eta": [1.0]}),
        (5.0, {"type": "hyperexp", "p": [True], "eta": [1.0]}),
    ], ids=["drift-text", "p-number", "p-text", "T-ragged", "T-flat", "drift-true", "p-true"])
    def test_malformed_model_file(self, capsys, tmp_path, drift, jump):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"drift": drift, "sigma": 1.0, "lambda": 5.0, "jump": jump}))
        code, out, err = run(capsys, "scale-eval", "--model", str(path), "--grid", "0:1:3")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed model field")

    @pytest.mark.parametrize("flag", ["--sigma", "--mu", "--lam"])
    def test_model_flags_rejected_with_a_file(self, capsys, tmp_path, flag):
        # the file sets drift, sigma and lambda; a flag that it would override
        # unseen is a validation error, not a silent no-op
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"drift": 5.0, "sigma": 1.0, "lambda": 5.0,
                                    "jump": {"type": "hyperexp", "p": [1.0], "eta": [1.0]}}))
        code, out, err = run(capsys, "exit-prob", "--model", str(path), flag, "0",
                             "--x", "1", "--b", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}")
        assert run(capsys, "exit-prob", "--model", str(path), "--x", "1", "--b", "5")[0] == 0

    def test_beta_benchmark_rejected_outside_mero(self, capsys):
        code, _, err = run(
            capsys, "scale-eval", "--model", "beta-benchmark", "--grid", "0:1:3"
        )
        assert code == 2
        assert err == "error: beta-benchmark is only valid for mero-bounds\n"


class TestDensitiesAndJoint:
    def test_overshoot_grid(self, capsys):
        code, out, _ = run(
            capsys, "overshoot", "--model", "exp1", "--sigma", "0", "--x", "5",
            "--grid", "0:2:5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        # x = 0 point dropped (density defined for a > 0)
        assert len(rows) == 4
        assert all(float(r["density"]) >= 0 for r in rows)

    def test_joint_window(self, capsys):
        code, out, _ = run(
            capsys, "joint", "--model", "exp1", "--x", "3",
            "--a-window", "0:inf", "--b-window", "0:inf",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert 0.0 < float(rows[0]["value"]) < 1.0

    def test_joint_metadata_names_the_model_parameters(self, capsys):
        argv = ("joint", "--model", "exp1", "--x", "3", "--a-window", "0:1", "--b-window", "0:1")
        metas = [parse_csv(run(capsys, *argv, "--sigma", s)[1])[0] for s in ("0", "1")]
        assert [(m["sigma"], m["mu"], m["lam"]) for m in metas] == [
            ("0.0", "5.0", "5.0"), ("1.0", "5.0", "5.0")]

    @pytest.mark.parametrize("sigma", (0, 1))
    def test_without_jumps_any_generator(self, capsys, tmp_path, sigma):
        # without jumps the overshoot laws are 0 whatever T is: the jumpless
        # Erlang-2 file prints the rows of exp1 with lam = 0
        path = tmp_path / "erlang2.json"
        path.write_text(json.dumps({
            "drift": 5.0, "sigma": sigma, "lambda": 0,
            "jump": {"type": "phase_type", "alpha": [1.0, 0.0],
                     "T": [[-2.0, 2.0], [0.0, -2.0]]}}))
        for argv in (("overshoot", "--x", "2", "--grid", "0:3:7"),
                     ("undershoot", "--x", "2", "--grid", "0:3:7"),
                     ("joint", "--x", "2", "--a-window", "0:inf", "--b-window", "0.5:2")):
            code, out, err = run(capsys, *argv, "--model", str(path))
            assert (code, err) == (0, ""), argv
            _, ref = run(capsys, *argv, "--model", "exp1", "--lam", "0", "--sigma", str(sigma))[:2]
            assert parse_csv(out)[1] == parse_csv(ref)[1], argv

    def test_joint_ph_model_unsupported(self, capsys, tmp_path):
        spec = {
            "drift": 5.0, "sigma": 1.0, "lambda": 5.0,
            "jump": {
                "type": "phase_type",
                "alpha": [1.0, 0.0],
                "T": [[-2.0, 2.0], [0.0, -2.0]],
            },
        }
        path = tmp_path / "ph.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(
            capsys, "joint", "--model", str(path), "--x", "3",
            "--a-window", "0:1", "--b-window", "0:1",
        )
        assert code == 3
        assert "numerical failure" in err


class TestMeroBounds:
    def test_gap_within_delta(self, capsys):
        code, out, _ = run(
            capsys, "mero-bounds", "--m", "50", "--grid", "0:1:11"
        )
        assert code == 0
        meta, rows = parse_csv(out)
        delta = float(meta["delta_m"])
        for r in rows:
            gap = float(r["w_upper"]) - float(r["w_lower"])
            # slack for the 12-significant-digit CSV formatting
            assert 0.0 <= gap <= 2.0 * delta * (1.0 + 1e-9)
            assert float(r["z_lower"]) <= float(r["z_upper"]) + 1e-15

    def test_non_beta_model_rejected(self, capsys):
        code, _, _ = run(
            capsys, "mero-bounds", "--model", "exp1", "--grid", "0:1:5"
        )
        assert code == 2


class TestCgmyLimit:
    def test_sup_diffs_in_header(self, capsys):
        code, out, _ = run(
            capsys, "cgmy-limit", "--betas", "1,0.5", "--m", "20",
            "--grid", "0:1:6",
        )
        assert code == 0
        meta, rows = parse_csv(out)
        sup_keys = [k for k in meta if k.startswith("sup_diff")]
        assert len(sup_keys) == 1
        assert float(meta[sup_keys[0]]) >= 0.0
        assert float(meta["lower_" + sup_keys[0]]) >= 0.0
        assert len(rows) == 12  # 2 betas x 6 grid points

    def test_ladder_rows_equal_the_single_runs(self, capsys):
        # the ladder is one bracket array, each beta's rows as if run alone
        grid = ("--m", "25", "--grid", "0:1:11")
        code, out, _ = run(capsys, "cgmy-limit", "--betas", "0.6,0.3,0.1", *grid)
        assert code == 0
        ladder = parse_csv(out)[1]
        for beta in ("0.6", "0.3", "0.1"):
            code, out, _ = run(capsys, "cgmy-limit", "--betas", beta, *grid)
            assert code == 0
            assert [r for r in ladder if r["beta"] == beta] == parse_csv(out)[1]

    def test_no_jumps_is_refused_by_name(self, capsys):
        code, out, err = run(capsys, "cgmy-limit", "--betas", "1,0.5", "--tilde-c", "0",
                             "--grid", "0:1:3")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: c = 0:")

    @pytest.mark.parametrize("betas", ("1,x", ""))
    def test_malformed_betas_is_validation_error(self, capsys, betas):
        code, _, err = run(capsys, "cgmy-limit", "--betas", betas, "--m", "5",
                           "--grid", "0:1:3")
        assert code == 2
        assert err.startswith("error:")


# inputs refused with one stderr line, most of which once ended in a
# traceback (exit 1): the histograms, grids and beta truncations before any
# bin, point or root is allocated
@pytest.mark.parametrize("argv, code", [
    (("cgmy-limit", "--betas", "1e300,1e299", "--grid", "0:1:3"), 2),
    (("simulate", "--model", "exp1", "--x", "1", "--b", "5", "--n-paths", "10",
      "--seed", "-1"), 2),
    (("simulate", "--model", "exp1", "--x", "1", "--mode", "histogram", "--n-paths", "10",
      "--bin-width", "1e-300"), 2),
    (("simulate", "--model", "exp1", "--x", "1e300", "--mode", "histogram",
      "--n-paths", "10"), 2),
    # a bin width of at least twice both windows, [0, 10] and [0, 2x], leaves
    # both histograms without a bin
    (("simulate", "--model", "exp1", "--sigma", "0", "--x", "2", "--mode", "histogram",
      "--n-paths", "10", "--bin-width", "30"), 2),
    (("identities", "--model", "exp1", "--q", "1e-300"), 3),
    (("scale-eval", "--model", "exp1", "--q", "1e-40", "--grid", "0:4:3"), 3),
    (("mero-bounds", "--m", "5", "--q", "1e-20", "--grid", "0:1:3"), 3),
    (("scale-eval", "--model", "exp1", "--grid", "0:1"), 2),
    (("joint", "--model", "exp1", "--x", "1", "--a-window", "0:1:2", "--b-window", "0:1"), 2),
    (("scale-eval", "--model", "exp1", "--grid", f"0:1:{10**6 + 1}"), 2),
    (("mero-bounds", "--m", f"{10**5 + 1}", "--grid", "0:1:3"), 2),
    (("cgmy-limit", "--m", f"{10**5 + 1}", "--grid", "0:1:3"), 2),
    (("scale-eval", "--model", "exp1", "--grid", "-1e308:1e308:3"), 2),
    (("cgmy-limit", "--betas", "1", "--tilde-alpha", "1e300", "--m", "5", "--grid", "0:1:3"),
     2),
    (("cgmy-limit", "--betas", "1e-300,1e-301", "--grid", "0:1:3"), 2),
], ids=("cgmy-overflow", "negative-seed", "bin-width", "histogram-x", "histogram-no-bins",
        "identities-tiny-q", "scale-eval-tiny-q", "mero-bounds-tiny-q", "grid-spec",
        "window-spec", "grid-count", "mero-bounds-m", "cgmy-limit-m", "grid-span",
        "beta-poles-collapse", "cgmy-c-underflow"))
def test_typed_refusal(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error:" if code == 2 else "numerical failure:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("betas, code, message", [
    ("1e200,1e199", 3, "gamma pole"), ("1e-199,1e-200", 2, "not strictly increasing")])
def test_extreme_betas_refused_before_psi_prime(capsys, betas, code, message):
    # the Gamma pole at alpha = 3e-200 and the poles that round to one float
    # at alpha = 3e199 are refused before psi' squares beta
    got, out, err = run(capsys, "cgmy-limit", "--betas", betas, "--grid", "0:1:3")
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1


class TestSimulate:
    def test_exit_deterministic(self, capsys):
        argv = ("simulate", "--model", "exp1", "--x", "2", "--b", "5",
                "--n-paths", "20000", "--seed", "4")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        _, rows = parse_csv(out1)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"up", "down"}
        for r in rows:
            assert float(r["ci_low"]) <= float(r["value"]) <= float(r["ci_high"])

    def test_scheme_in_metadata(self, capsys):
        base = ("simulate", "--model", "exp1", "--x", "2", "--n-paths", "1000")
        _, out, _ = run(capsys, *base, "--b", "5")
        assert parse_csv(out)[0]["scheme"] == "bridge"
        _, out, _ = run(capsys, *base, "--b", "5", "--sigma", "0", "--format", "json")
        assert json.loads(out)["config"]["scheme"] == "drift"
        _, out, _ = run(capsys, *base, "--mode", "histogram")
        assert parse_csv(out)[0]["scheme"] == "bridge"

    @pytest.mark.parametrize("sigma, scheme", [("0", "drift"), ("1", "bridge")])
    def test_exit_at_an_infinite_barrier(self, capsys, sigma, scheme):
        # b = inf is the half-line: no path exits up
        code, out, _ = run(capsys, "simulate", "--model", "exp1", "--sigma", sigma,
                           "--x", "2", "--b", "inf", "--q", "0.05", "--n-paths", "2000")
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["scheme"] == scheme
        values = {r["kind"]: float(r["value"]) for r in rows}
        assert values["up"] == 0.0 and 0.0 < values["down"] < 1.0

    def test_exit_requires_barrier(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--model", "exp1", "--x", "2",
            "--n-paths", "1000",
        )
        assert code == 2

    def test_histogram_rejects_barrier(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--model", "exp1", "--x", "2", "--b", "5",
            "--mode", "histogram", "--n-paths", "1000",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--b" in err

    def test_histogram_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "exp1", "--sigma", "0", "--x", "2",
            "--mode", "histogram", "--n-paths", "20000", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"overshoot", "undershoot"}
        assert all(float(r["density"]) >= 0 for r in rows)


class TestIdentities:
    @pytest.mark.parametrize("model", ["exp1", "weibull-fit", "pareto-fit"])
    def test_no_failures(self, capsys, model):
        code, out, _ = run(capsys, "identities", "--model", model)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows, "report should not be empty"
        assert all(r["status"] in ("pass", "info") for r in rows)

    @pytest.mark.parametrize("q", (1e-3, 0.05, 100.0))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("model", ["exp1", "weibull-fit", "pareto-fit"])
    def test_wh_factorisation_holds(self, model, sigma, q):
        residual, ok = identities_report(builtin_model(model, sigma=sigma), q)["wh_factorisation"]
        assert ok and residual <= 1e-12

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("model", ["exp1", "weibull-fit", "pareto-fit"])
    def test_wh_factorisation_fails_on_a_moved_root(self, monkeypatch, model, sigma):
        # the factorisation compares the roots with psi itself: xi_1 moved by
        # 1e-6 relative must FAIL the row (phi_q_minus(0) = 1 would still hold)
        def moved(m, q):
            sf = build_scale(m, q)
            xi = sf.decomp.xi.copy()
            xi[0] *= 1.0 + 1e-6
            return replace(sf, decomp=replace(sf.decomp, xi=xi))

        monkeypatch.setattr(cli, "build_scale", moved)
        _, ok = identities_report(builtin_model(model, sigma=sigma), 0.05)["wh_factorisation"]
        assert ok is False

    @pytest.mark.parametrize("q", (1e-3, 0.05, 1.0, 100.0, 1e3))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    def test_laplace_at_poles_for_every_generator(self, sigma, q):
        # the transform of W vanishes at every pole of psi, whatever T is:
        # Erlang laws (a double and a triple pole), Coxians and a generator
        # with a complex eigenvalue pair
        laws = [
            PhaseTypeRepr(alpha=(1.0, 0.0), T=((-2.0, 2.0), (0.0, -2.0))),
            PhaseTypeRepr(alpha=(1.0, 0.0, 0.0),
                          T=((-3.0, 3.0, 0.0), (0.0, -3.0, 3.0), (0.0, 0.0, -3.0))),
            PhaseTypeRepr(alpha=(0.5, 0.3, 0.2),
                          T=((-3.0, 2.5, 0.0), (0.0, -2.0, 1.9), (3.5, 0.0, -4.0))),
            *coxian_laws(4, 3),
        ]
        for law in laws:
            report = identities_report(SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=law), q)
            assert report["laplace_at_poles"][1] is True, (law, report)
            assert all(ok for _, ok in report.values()), (law, report)

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("model", ["exp1", "weibull-fit", "pareto-fit"])
    def test_laplace_at_poles_fails_on_a_scaled_residue(self, monkeypatch, model, sigma):
        def scaled(m, q):
            sf = build_scale(m, q)
            C = sf.C.copy()
            C[0] *= 1.0 + 1e-6
            return replace(sf, C=C)

        monkeypatch.setattr(cli, "build_scale", scaled)
        _, ok = identities_report(builtin_model(model, sigma=sigma), 0.05)["laplace_at_poles"]
        assert ok is False

    @pytest.mark.parametrize("source", ["exp1-s0", "exp1-s1", "coxian-file"])
    def test_without_jumps(self, capsys, tmp_path, source):
        # a pure drift (sigma = 0, lam = 0) has no negative root, and theta
        # and varrho are both 0; psi has no poles without jumps
        if source == "coxian-file":
            path = tmp_path / "drift.json"
            path.write_text(json.dumps({
                "drift": 5.0, "sigma": 0, "lambda": 0,
                "jump": {"type": "phase_type", "alpha": [1.0, 0.0],
                         "T": [[-3.0, 1.8], [0.0, -1.5]]}}))
            argv = ("--model", str(path))
        else:
            argv = ("--model", "exp1", "--sigma", source[-1], "--lam", "0")
        code, out, _ = run(capsys, "identities", *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["pass"] * 6, rows

    @pytest.mark.parametrize("sigma", (0, 1))
    def test_without_jumps_repeated_eigenvalue(self, capsys, tmp_path, sigma):
        # an Erlang-2 T has the double eigenvalue -2, which is no pole of psi
        # without jumps: the file is the pure drift or Brownian motion of
        # exp1 with lam = 0, not a clustered pair of roots
        path = tmp_path / "erlang2.json"
        path.write_text(json.dumps({
            "drift": 5.0, "sigma": sigma, "lambda": 0,
            "jump": {"type": "phase_type", "alpha": [1.0, 0.0],
                     "T": [[-2.0, 2.0], [0.0, -2.0]]}}))
        code, out, _ = run(capsys, "identities", "--model", str(path))
        assert code == 0
        assert [r["status"] for r in parse_csv(out)[1]] == ["pass"] * 6
        assert run(capsys, "exit-prob", "--model", str(path), "--x", "1", "--b", "5")[0] == 0
        grid = ("--grid", "0:3:7")
        code, out, _ = run(capsys, "scale-eval", "--model", str(path), *grid)
        _, ref = run(capsys, "scale-eval", "--model", "exp1", "--lam", "0",
                     "--sigma", str(sigma), *grid)[:2]
        assert code == 0
        assert parse_csv(out)[1] == parse_csv(ref)[1]

    @pytest.mark.parametrize("q", (0.05, 100.0))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("law", ["exp1", "pareto-fit", "pareto-fit-twin", "coxian"])
    def test_rows_are_python_scalars(self, law, sigma, q):
        # np.float64 subclasses float, so the types are compared exactly: a
        # caller testing `ok is False` must not miss a NumPy False
        jumps = {**BUILTIN_JUMPS, "pareto-fit-twin": as_phase_type(PARETO_FIT),
                 "coxian": PhaseTypeRepr(alpha=(0.7, 0.3), T=((-3.0, 1.8), (0.0, -1.5)))}[law]
        report = identities_report(SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=jumps), q)
        for name, (residual, ok) in report.items():
            assert type(residual) is float, name
            assert ok is None or type(ok) is bool, name

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("deficit", (5e-6, -5e-6))
    def test_weight_deficit_is_levy_mass(self, sigma, deficit):
        # weights summing to 1 -+ 5e-6, inside the simplex tolerance, are Levy
        # mass lam * sum(alpha): psi(0) = 0 and every gated identity holds
        law = PhaseTypeRepr(alpha=(0.7, 0.3 - deficit), T=((-3.0, 1.8), (0.0, -1.5)))
        model = SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=law)
        assert model.laplace_exponent(0.0) == 0.0
        report = identities_report(model, 0.05)
        assert all(ok for _, ok in report.values() if ok is not None), report


def _run_python(code):
    """stdout of ``python -c code`` with this checkout's phscale on the path."""
    src = os.path.dirname(os.path.dirname(phscale.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_out_scipy_optimize():
    # the roots are bracketed and bisected in-package and the beta function
    # is NumPy code: importing the CLI loads no SciPy module at all
    code = ("import sys, phscale.cli; print('scipy.optimize' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "False []"


def test_commands_run_without_scipy():
    # SciPy is a test dependency only: with every import of it made to fail
    # (a None entry in sys.modules), each kind of command runs, the beta-family
    # included, and no SciPy module is loaded
    code = """if True:
        import os, sys
        sys.modules["scipy"] = None
        from phscale.cli import main
        runs = (["mero-bounds", "--m", "50", "--grid", "0:1:11"],
                ["cgmy-limit", "--m", "20", "--grid", "0:1:5"],
                ["exit-prob", "--model", "exp1", "--x", "1", "--b", "5"],
                ["overshoot", "--model", "exp1", "--x", "2", "--grid", "0.5:2:4"],
                ["simulate", "--model", "exp1", "--x", "2", "--b", "5", "--n-paths", "2000"])
        codes = [main([*argv, "--output", os.devnull]) for argv in runs]
        print(codes, sorted(m for m, v in sys.modules.items()
                            if m.split(".")[0] == "scipy" and v is not None))
    """
    assert _run_python(code) == "[0, 0, 0, 0, 0] []"
