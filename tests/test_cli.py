"""Command-line interface: output formats, values, and exit codes."""
import csv
import io
import json
import os
import subprocess
import sys

import pytest

import phscale
from phscale.cli import build_parser, main


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


class TestExitProb:
    def test_benchmark_value(self, capsys):
        code, out, _ = run(
            capsys, "exit-prob", "--model", "exp1", "--x", "1", "--b", "5"
        )
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["command"] == "exit-prob"
        assert float(rows[0]["up_exit"]) == pytest.approx(0.30312, abs=5e-6)

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

    def test_x_above_barrier_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "exit-prob", "--model", "exp1", "--x", "6", "--b", "5"
        )
        assert code == 2
        assert "error" in err


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

    def test_beta_benchmark_rejected_outside_mero(self, capsys):
        code, _, _ = run(
            capsys, "scale-eval", "--model", "beta-benchmark", "--grid", "0:1:3"
        )
        assert code == 2


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
        assert len(rows) == 12  # 2 betas x 6 grid points


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

    def test_exit_requires_barrier(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--model", "exp1", "--x", "2",
            "--n-paths", "1000",
        )
        assert code == 2

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


def test_import_leaves_out_scipy_optimize():
    # the roots are bracketed and bisected in-package; no SciPy solver is
    # loaded, and SciPy as a whole loads only when a function that needs it
    # (the matrix exponential, the gamma family) is first called
    src = os.path.dirname(os.path.dirname(phscale.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, phscale.cli; print('scipy.optimize' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False []"
