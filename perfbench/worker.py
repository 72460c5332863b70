"""One fresh interpreter per workload run: import phscale.cli, then serve the
generated requests in-process through ``phscale.cli.main(argv)``.

Usage: python3 perfbench/worker.py SPEC.json {setup|timed|trace}

The worker prints ``ready <CPU seconds>`` once ``phscale.cli`` is imported
and the request list is loaded; the parent times interpreter start to that
line as setup. ``setup`` then times the scalar calibration unit and exits.
``timed`` runs the closed loop (one client, one request in flight) for the
spec's seconds, stopping on a cycle boundary. ``trace`` serves the fixed
traced prefix, each request once untraced and once traced (alternating which
goes first, so that drift of the machine's speed cancels), installing the
wrappers only around the traced call.
"""
import contextlib
import io
import itertools
import json
import resource
import sys
import time

import phscale.cli

from calib import unit_cpu_s

CALIBRATE_EVERY_CPU_S = 0.25


def _request(argv: list, out_path: str) -> dict:
    """Serve one request; the record holds its exit code and times."""
    err = io.StringIO()
    crash = rejected = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stderr(err):
            code = phscale.cli.main(argv + ["--output", out_path])
    except SystemExit as exc:          # argparse rejected the generated argv
        code, rejected = exc.code, True
    except Exception as exc:           # an uncaught traceback: exit code 1
        code, crash = 1, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    return {"code": code, "s": t1 - t0, "cpu_s": c1 - c0, "crash": crash,
            "rejected": rejected, "stderr": err.getvalue()[-300:]}


def _timed(spec: dict) -> dict:
    """Closed loop over the request list, wrapping around if it runs out.
    Every calibration unit runs between requests every CALIBRATE_EVERY_CPU_S
    of request CPU time; each record notes the last calibration point."""
    requests, cycle = spec["requests"], spec["cycle_len"]
    calib = {unit: [] for unit in spec["calib_units"]}
    records = []
    since_calib, n_calib = CALIBRATE_EVERY_CPU_S, 0
    start = time.perf_counter()
    for i in itertools.count():
        if since_calib >= CALIBRATE_EVERY_CPU_S:
            for unit, timings in calib.items():
                timings.append(unit_cpu_s(unit))
            since_calib, n_calib = 0.0, n_calib + 1
        rec = _request(requests[i % len(requests)]["argv"], f"{spec['out_dir']}/{i}.out")
        rec["calib"] = n_calib - 1
        records.append(rec)
        since_calib += rec["cpu_s"]
        n, elapsed = i + 1, time.perf_counter() - start
        if elapsed >= spec["seconds"] and n >= spec["min_requests"] and n % cycle == 0:
            break
    return {"records": records, "wall_s": time.perf_counter() - start, "calib_s": calib}


def _traced(spec: dict) -> dict:
    from spans import Tracer

    tracer = Tracer()
    plain, traced, leftover, patched = [], [], set(), 0
    for i, req in enumerate(spec["requests"][:spec["trace_prefix"]]):
        tracer.request = i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(_request(req["argv"], f"{spec['out_dir']}/{i}.out"))
                continue
            tracer.install()
            patched = max(patched, len(tracer._patches))
            try:
                traced.append(_request(req["argv"], f"{spec['trace_dir']}/{i}.out"))
            finally:
                tracer.uninstall()
            leftover.update(Tracer.leftover_wrappers())
    return {"records": plain, "wall_s": sum(r["s"] for r in plain),
            "traced_records": traced, "traced_wall_s": sum(r["s"] for r in traced),
            "patched_attributes": patched, "leftover_wrappers": sorted(leftover),
            "work": [[k if isinstance(k, str) else list(k), v]
                     for k, v in tracer.work.items()],
            "spans": tracer.spans}


def main(spec_path: str, mode: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    print(f"ready {time.process_time()!r}", flush=True)
    if mode == "setup":
        print(f"calib {sorted(unit_cpu_s('scalar') for _ in range(3))[1]!r}", flush=True)
        return 0
    out = _timed(spec) if mode == "timed" else _traced(spec)
    out["phscale_file"] = phscale.cli.__file__
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result_path"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
