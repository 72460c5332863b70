"""The A/B harness's summary arithmetic on canned run.py result lines; no
subprocess is started."""
import json

import pytest

from ab_bench import last_json, summarize, table

METRICS = [{"name": "req_per_s", "better": "higher", "bound": 0.2},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]


def _line(rps, p50):
    return json.dumps({"correct": True, "metrics": {
        "req_per_s": {"value": rps, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"}}})


def _runs(values):
    return [last_json(f"human-readable line\n{_line(*v)}\n") for v in values]


def test_last_json_reads_the_last_line_only():
    assert last_json("a\n{\"x\": 1}\n\n") == {"x": 1}
    assert last_json("{\"x\": 1}\nTraceback (most recent call last):") is None
    assert last_json("") is None
    assert last_json("[1, 2]") is None


def test_medians_quartiles_wins_and_gaps():
    base = _runs([(100.0, 2.0), (110.0, 2.2), (90.0, 1.8), (105.0, 2.1)])
    change = _runs([(110.0, 1.8), (99.0, 2.2), (99.0, 1.7), (126.0, 2.0)])
    s = summarize({"closed-form": {"base": base, "change": change}}, METRICS)["closed-form"]
    rps = s["req_per_s"]
    assert rps["base"]["values"] == [100.0, 110.0, 90.0, 105.0]
    assert rps["base"]["median"] == pytest.approx(102.5)
    assert (rps["base"]["q1"], rps["base"]["q3"]) == pytest.approx((97.5, 106.25))
    assert rps["change"]["median"] == pytest.approx(104.5)
    # gaps change/base - 1: +10%, -10%, +10%, +20%
    assert rps["wins"] == 3 and rps["pairs"] == 4
    assert rps["median_gap"] == pytest.approx(0.10)
    assert rps["within_bound"] is True
    p50 = s["latency_p50_ms"]
    # lower is better: 1.8 < 2.0, 1.7 < 1.8 and 2.0 < 2.1 win; 2.2 = 2.2 does not
    assert p50["wins"] == 3
    assert p50["median_gap"] == pytest.approx((1.7 / 1.8 + 2.0 / 2.1) / 2 - 1)


def test_bound_is_relative_to_the_base_median():
    base = _runs([(100.0, 2.0)] * 3)
    for rps, p50, ok in ((80.0, 2.5, True), (79.9, 2.5, False), (80.0, 2.51, False)):
        s = summarize({"w": {"base": base, "change": _runs([(rps, p50)] * 3)}}, METRICS)["w"]
        assert (s["req_per_s"]["within_bound"] and s["latency_p50_ms"]["within_bound"]) is ok


def test_a_pair_with_a_missing_run_is_left_out():
    base = _runs([(100.0, 2.0), (100.0, 2.0)]) + [None]
    change = [None] + _runs([(120.0, 1.0), (120.0, 1.0)])
    s = summarize({"w": {"base": base, "change": change}}, METRICS)["w"]["req_per_s"]
    assert s["pairs"] == 1 and s["base"]["values"] == [100.0] and s["change"]["values"] == [120.0]
    empty = summarize({"w": {"base": [None], "change": [None]}}, METRICS)
    assert empty["w"]["req_per_s"]["within_bound"] is None
    assert "| w | req_per_s | n/a | n/a | 0/0 | n/a | None |" in table(empty, METRICS)
