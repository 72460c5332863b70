"""Self-time arithmetic and wrapper rebinding of the benchmark's tracer.

Run with: python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import phscale  # noqa: E402
import phscale.cli  # noqa: E402
import phscale.roots  # noqa: E402
import phscale.scale  # noqa: E402

from spans import Tracer, layer_summary, self_times  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    # request 0: cli [0,10] > scale [1,4] > roots [2,3]; cli > fluctuation [5,9]
    spans = [
        (0, 0, -1, "cli", "main", 0.0, 10.0, False),
        (0, 1, 0, "scale", "build_scale", 1.0, 4.0, False),
        (0, 2, 1, "roots", "find_roots", 2.0, 3.0, True),
        (0, 3, 0, "fluctuation", "up_exit", 5.0, 9.0, False),
    ]
    own = {s[2]: s[4] for s in self_times(spans)}
    assert own == {"main": 3.0, "build_scale": 2.0, "find_roots": 1.0, "up_exit": 4.0}
    assert sum(own.values()) == 10.0          # self times account for the request
    layers = layer_summary(spans)["layers"]
    assert layers["roots"] == {"self_s": 1.0, "calls": 1, "errors": 1}
    assert layers["scale"]["errors"] == 0


def test_nested_spans_of_one_layer_count_one_call():
    spans = [
        (0, 0, -1, "roots", "find_roots", 0.0, 5.0, False),
        (0, 1, 0, "roots", "find_zeta", 1.0, 2.0, False),
    ]
    layers = layer_summary(spans)["layers"]
    assert layers["roots"]["calls"] == 1
    assert layers["roots"]["self_s"] == 5.0


def _run(tmp_path, name):
    out = tmp_path / name
    code = phscale.cli.main(["exit-prob", "--model", "pareto-fit", "--x", "1", "--b", "5",
                             "--output", str(out)])
    assert code == 0
    return out.read_bytes()


def test_install_rebinds_every_alias_and_uninstall_restores(tmp_path):
    original = phscale.scale.build_scale
    untraced = _run(tmp_path, "untraced.csv")
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = phscale.scale.build_scale
        assert wrapped is not original and wrapped.__traced__ is original
        # names bound with "from ... import" are rebound too
        assert phscale.cli.build_scale is wrapped and phscale.build_scale is wrapped
        assert phscale.scale.find_roots is phscale.roots.find_roots
        assert hasattr(phscale.scale.ScaleFunction.w_tilted, "__traced__")
        tracer.request = 0
        traced = _run(tmp_path, "traced.csv")
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert phscale.cli.build_scale is original and phscale.build_scale is original
    assert Tracer.leftover_wrappers() == []

    layers = {s[3] for s in tracer.spans}
    assert {"cli", "models", "roots", "wiener_hopf", "scale", "fluctuation"} <= layers
    assert all(s[0] == 0 for s in tracer.spans)
    assert tracer.work["roots_found"] == 16             # 14 poles + outer root + zeta
    assert tracer.work[("roots", "psi")] > tracer.work["roots_found"]
