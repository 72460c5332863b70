#!/usr/bin/env python3
"""phscale benchmark: closed-loop CLI requests, checked after the timer stops.

    python3 perfbench/run.py --workload {closed-form,mero,mc} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. Human-readable lines come first;
the last line of standard output is one JSON object. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7          # fresh interpreters timed to "ready"; median reported
IMPORTTIME_SAMPLES = 3
MIN_REQUESTS = 100         # latency_p90 needs ten samples beyond it
REQUESTS_PER_SECOND_GENERATED = 100   # list length; the worker wraps around if needed
MC_Z_GATE = 6.0            # |estimate - closed form| / se per MC exit request
CHILD_TIMEOUT_S = 150
# the end-to-end metrics in BENCHMARK.json; the others are printed only
GATED = ("setup_s", "req_per_s", "latency_p50_ms", "latency_p90_ms", "valid_share",
         "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _spawn(cmd: list, stderr_path: Path):
    """Start a child; return (wall, CPU) seconds from interpreter start to its
    ``ready`` line, and the calibration unit's CPU seconds if it printed one."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0].split()
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not line.startswith("ready") or code != 0:
        raise BenchError(f"{cmd[-1]} worker exited {code}: "
                         + stderr_path.read_text()[-2000:])
    calib = float(rest[-1]) if rest[:1] == ["calib"] else None
    return wall, float(line.split()[-1]), calib


def _worker(spec_path: Path, mode: str, work: Path):
    return _spawn([sys.executable, str(HERE / "worker.py"), str(spec_path), mode],
                  work / f"worker-{mode}.stderr")


def _load_result(spec: dict) -> dict:
    result = json.loads(Path(spec["result_path"]).read_text())
    if not Path(result["phscale_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported phscale from {result['phscale_file']}")
    return result


def _import_ms(work: Path) -> dict:
    """Self import time of scipy, numpy and phscale, from ``-X importtime`` in
    a fresh interpreter (median of several)."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phscale.cli"],
                             capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                             timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError("import phscale.cli failed: " + res.stderr[-2000:])
        total = Counter()
        for line in res.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            total[name.strip().split(".")[0]] += int(own)
        for pkg in ("scipy", "numpy", "phscale"):
            samples[pkg].append(total[pkg] / 1000.0)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


# -- output checks ----------------------------------------------------------


def _closed_form_up(meta: dict, cache: dict) -> float:
    """Closed-form up-exit probability for an MC exit request."""
    key = (meta["model"], meta["sigma"], meta["x"])
    if key not in cache:
        from phscale.fluctuation import up_exit
        from phscale.models import builtin_model
        from phscale.scale import build_scale

        model = builtin_model(meta["model"], sigma=meta["sigma"], mu=meta["mu"],
                              lam=meta["lam"])
        cache[key] = up_exit(build_scale(model, meta["q"]), meta["x"], meta["b"])
    return cache[key]


def _label(meta: dict) -> str:
    parts = [meta["cmd"], meta.get("model", "beta-benchmark")]
    if "sigma" in meta:
        parts.append(f"sigma={meta['sigma']:g}")
    return " ".join(parts)


def _cell(meta: dict) -> str:
    return " ".join(f"{k}={meta[k]:.3g}" for k in ("q", "x", "m") if k in meta)


def assess(requests: list, records: list, out_dir: Path, n_prefix: int) -> dict:
    """Classify every attempted request and gather the accuracy figures.

    The accuracy figures (identity residuals, MC bias) use the first
    ``n_prefix`` requests only, which every run attempts, so they repeat
    exactly for a fixed seed.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))     # for the MC closed forms
    cache = {}
    res = {"failed": [], "errors": Counter(), "invalid": defaultdict(list),
           "valid": 0, "max_residual": 0.0, "n_identities": 0,
           "mc_diff": 0.0, "mc_var": 0.0, "mc_gate": []}
    for i, rec in enumerate(records):
        meta = requests[i % len(requests)]["meta"]
        if rec["rejected"]:
            res["failed"].append(f"{_label(meta)} {_cell(meta)}: argv rejected "
                                 + rec["stderr"].strip()[-200:])
            continue
        if rec["code"] != 0:
            if rec["crash"]:
                reason = "uncaught " + rec["crash"].split(":")[0]
            else:
                lines = [ln for ln in rec["stderr"].splitlines()
                         if "error" in ln or "failure" in ln]
                reason = re.sub(r"[-+0-9.e]{3,}", "#", lines[-1])[:90] if lines else "?"
            res["errors"][f"{_label(meta)}: exit {rec['code']} {reason}"] += 1
            continue
        path = out_dir / f"{i}.out"
        if not path.is_file():
            res["failed"].append(f"{_label(meta)} {_cell(meta)}: no output file")
            continue
        malformed, bad, extras = checks.check(meta, path.read_text())
        if malformed:
            res["failed"].append(f"{_label(meta)} {_cell(meta)}: {malformed}")
            continue
        if bad:
            res["invalid"][f"{_label(meta)}: {'; '.join(bad)}"].append(_cell(meta))
        else:
            res["valid"] += 1
        if "up" in extras:
            (est, se), exact = extras["up"], _closed_form_up(meta, cache)
            if abs(est - exact) > MC_Z_GATE * se + 1e-12:
                res["mc_gate"].append(f"{_label(meta)} {_cell(meta)}: "
                                      f"{est:.5f} vs {exact:.5f} (se {se:.2g})")
            if i < n_prefix:
                res["mc_diff"] += est - exact
                res["mc_var"] += se * se
        if "max_residual" in extras and i < n_prefix:
            res["n_identities"] += 1
            res["max_residual"] = max(res["max_residual"], extras["max_residual"])
    return res


def _digits(res: dict) -> float:
    if not res["n_identities"]:
        return 0.0
    return -math.log10(max(res["max_residual"], 1e-17))


def _bias_z(res: dict) -> float:
    return abs(res["mc_diff"]) / math.sqrt(res["mc_var"]) if res["mc_var"] > 0 else 0.0


def _print_findings(res: dict, attempted: int) -> None:
    n_err = sum(res["errors"].values())
    n_inv = sum(len(v) for v in res["invalid"].values())
    print(f"requests: {attempted} attempted, {res['valid']} valid, {n_inv} invalid, "
          f"{n_err} errors (nonzero exit), {len(res['failed'])} failed")
    for label, cells in sorted(res["invalid"].items(), key=lambda kv: -len(kv[1])):
        print(f"  invalid x{len(cells)}: {label} [{', '.join(sorted(set(cells))[:4])}]")
    for label, n in res["errors"].most_common():
        print(f"  error   x{n}: {label}")
    for line in res["failed"][:20]:
        print(f"  FAILED: {line}")
    for line in res["mc_gate"]:
        print(f"  MC GATE: {line}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- modes --------------------------------------------------------------------


def _calibrated(requests: list, records: list, units: dict) -> list:
    """Each request's CPU seconds at its calibration unit's nominal speed,
    using the median of that unit's five timings around the request."""
    out = []
    for i, r in enumerate(records):
        unit = requests[i % len(requests)]["meta"].get("calib", "scalar")
        near = units[unit][max(0, r["calib"] - 2):r["calib"] + 3]
        out.append(r["cpu_s"] * calib.NOMINAL_S[unit] / statistics.median(near))
    return out


def _quantile(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, so it does not jump across gaps between request kinds
    the way a single order statistic does."""
    from scipy.special import betainc

    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(sorted(xs)))


def run_timed(args, requests, spec, spec_path, work) -> dict:
    setups = [_worker(spec_path, "setup", work) for _ in range(SETUP_SAMPLES)]
    _worker(spec_path, "timed", work)
    result = _load_result(spec)
    records, units = result["records"], result["calib_s"]
    n = len(records)
    lat_ms = sorted(s * 1000.0 for s in _calibrated(requests, records, units))
    wall_ms = sorted(r["s"] * 1000.0 for r in records)
    res = assess(requests, records, Path(spec["out_dir"]), spec["trace_prefix"])
    _print_findings(res, n)
    report = {
        "setup_s": (statistics.median(c * calib.NOMINAL_S["scalar"] / u for _, c, u in setups),
                    "s"),
        "req_per_s": (n * 1000.0 / sum(lat_ms), "1/s"),
        "latency_p50_ms": (_quantile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (_quantile(lat_ms, 0.9), "ms"),
        "latency_samples": (n, "count"),
        "valid_share": (res["valid"] / n, "share"),
        "error_rate": (sum(r["code"] != 0 for r in records) / n, "share"),
        "invalid_rate": (sum(len(v) for v in res["invalid"].values()) / n, "share"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    if args.workload == "closed-form":
        report["identity_digits"] = (_digits(res), "digits")
    if args.workload == "mc":
        report["mc_abs_bias_z"] = (_bias_z(res), "z")
    print(f"uncalibrated wall clock: setup {statistics.median(s[0] for s in setups):.4g} s, "
          f"req_per_s {n / result['wall_s']:.4g}, p50 {statistics.median(wall_ms):.4g} ms, "
          f"p90 {statistics.quantiles(wall_ms, n=10)[8]:.4g} ms; calibration units "
          + ", ".join(f"{u} median {statistics.median(t) * 1000:.3g} ms (nominal "
                      f"{calib.NOMINAL_S[u] * 1000:.3g} ms, {len(t)} timings)"
                      for u, t in units.items()))
    for name, (value, unit) in report.items():
        print(f"{name:>16} = {value:.6g} {unit}")
    correct = not res["failed"] and not res["mc_gate"] and n >= MIN_REQUESTS
    return {"correct": correct, "attempted": n, "failed": len(res["failed"]),
            "metrics": {k: _metric(*report[k]) for k in GATED}}


def _differs(a: Path, b: Path) -> bool:
    """Whether two request outputs differ (a missing file differs from a file)."""
    if a.is_file() != b.is_file():
        return True
    return a.is_file() and a.read_bytes() != b.read_bytes()


def run_traced(args, requests, spec, spec_path, work) -> dict:
    _worker(spec_path, "trace", work)
    result = _load_result(spec)
    prefix = spec["trace_prefix"]
    out_dir, trace_dir = Path(spec["out_dir"]), Path(spec["trace_dir"])
    differing = [i for i in range(prefix)
                 if _differs(out_dir / f"{i}.out", trace_dir / f"{i}.out")]
    res = assess(requests, result["records"], out_dir, prefix)
    _print_findings(res, prefix)

    span_list = [tuple(s) for s in result["spans"]]
    summary = spans.layer_summary(span_list)
    layers, fns = summary["layers"], summary["functions"]
    work_counts = Counter({(tuple(k) if isinstance(k, list) else k): v
                           for k, v in result["work"]})
    traced_lat = [r["s"] for r in result["traced_records"]]

    # per request: layer self times against the wall time the worker measured
    per_req_self = defaultdict(float)
    for req, _, _, _, own, _ in spans.self_times(span_list):
        per_req_self[req] += own
    shares = [per_req_self[i] / s for i, s in enumerate(traced_lat)]

    def fn_sum(names, key):
        return sum(fns[n][key] for n in names if n in fns)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    scale_pts = fn_sum(spans.SCALE_POINT_FNS, "calls")
    fluct_pts = fn_sum(spans.FLUCTUATION_POINT_FNS, "calls")
    bound_pts = fn_sum(spans.BOUNDS_FNS, "calls")
    coef = fns.get("truncated_coefficients", {"total_s": 0.0, "calls": 0})
    untraced_rps = prefix / result["wall_s"]
    traced_rps = prefix / result["traced_wall_s"]
    metrics = {}
    for name in spans.LAYERS:
        entry = layers[name]
        metrics[f"{name}.self_ms"] = (entry["self_s"] * 1000.0 / prefix, "ms")
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.errors"] = (entry["errors"], "count")
    metrics.update({
        "roots.roots_found": (work_counts["roots_found"], "count"),
        "roots.psi_evals_per_root": (per(work_counts[("roots", "psi")],
                                         work_counts["roots_found"]), "count"),
        "scale.points": (scale_pts, "count"),
        "scale.us_per_point": (per(fn_sum(spans.SCALE_POINT_FNS, "self_s"), scale_pts, 1e6),
                               "us"),
        "fluctuation.points": (fluct_pts, "count"),
        "fluctuation.us_per_point": (per(fn_sum(spans.FLUCTUATION_POINT_FNS, "self_s"),
                                         fluct_pts, 1e6), "us"),
        "meromorphic.coef_ms": (per(coef["total_s"], coef["calls"], 1e3), "ms"),
        "meromorphic.roots_found": (work_counts["mero_roots_found"], "count"),
        "meromorphic.psi_evals_per_root": (per(work_counts[("meromorphic", "beta_psi")],
                                               work_counts["mero_roots_found"]), "count"),
        "meromorphic.bounds_points": (bound_pts, "count"),
        "meromorphic.bounds_us_per_point": (per(fn_sum(spans.BOUNDS_FNS, "total_s"),
                                                bound_pts, 1e6), "us"),
        "mc.paths": (work_counts["paths_brownian"] + work_counts["paths_drift"], "count"),
        "mc.paths_per_s_brownian": (per(work_counts["paths_brownian"],
                                        work_counts["paths_brownian_s"]), "1/s"),
        "mc.paths_per_s_drift": (per(work_counts["paths_drift"],
                                     work_counts["paths_drift_s"]), "1/s"),
    })
    for pkg, ms in _import_ms(work).items():
        metrics[f"setup.import_ms.{pkg}"] = (ms, "ms")
    metrics.update({
        "trace.requests": (prefix, "count"),
        "trace.req_per_s_untraced": (untraced_rps, "1/s"),
        "trace.req_per_s_traced": (traced_rps, "1/s"),
        "trace.overhead_pct": ((untraced_rps / traced_rps - 1.0) * 100.0, "%"),
        "trace.self_share": (sum(per_req_self.values()) / sum(traced_lat), "share"),
        "trace.min_request_self_share": (min(shares), "share"),
        "checks.error_rate": (sum(r["code"] != 0 for r in result["records"]) / prefix,
                              "share"),
        "checks.invalid_rate": (sum(len(v) for v in res["invalid"].values()) / prefix,
                                "share"),
        "checks.identity_digits": (_digits(res), "digits"),
        "checks.mc_abs_bias_z": (_bias_z(res), "z"),
    })
    _write_spans(args, span_list)
    for name, (value, unit) in metrics.items():
        print(f"{name:>34} = {value:.6g} {unit}")
    print(f"outputs differing traced vs untraced: {differing or 'none'}; "
          f"wrappers patched {result['patched_attributes']}, "
          f"left after uninstall: {result['leftover_wrappers'] or 'none'}")
    correct = (not differing and not result["leftover_wrappers"]
               and result["patched_attributes"] > 0 and not res["failed"]
               and not res["mc_gate"])
    return {"correct": correct, "attempted": prefix, "failed": len(res["failed"]),
            "metrics": {k: _metric(*v) for k, v in metrics.items()}}


def _write_spans(args, span_list) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.csv"
    with open(path, "w") as fh:
        fh.write("request,span,parent,layer,name,t0,t1,raised\n")
        for s in span_list:
            fh.write(",".join(map(str, s)) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "phscale" / "cli.py").is_file():
        print(f"error: no phscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        (work / "out").mkdir(parents=True)
        (work / "traced").mkdir()
        requests, cycle_len, prefix = workloads.generate(
            args.workload, args.seed, int(args.seconds * REQUESTS_PER_SECOND_GENERATED),
            work / "models")
        spec = {"requests": requests, "cycle_len": cycle_len, "trace_prefix": prefix,
                "calib_units": workloads.WORKLOADS[args.workload][2],
                "seconds": args.seconds, "min_requests": MIN_REQUESTS,
                "out_dir": str(work / "out"), "trace_dir": str(work / "traced"),
                "result_path": str(work / "result.json")}
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        mode = run_traced if args.trace else run_timed
        summary = mode(args, requests, spec, spec_path, work)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
