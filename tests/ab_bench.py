"""A/B benchmark of this checkout against a base commit, in alternating pairs.

Run from the repository root:

    python tests/ab_bench.py BASE [--pairs N] [--seconds S] [--workloads W ...] \\
        [--out BENCH_<n>.json]

BASE is any commit that git resolves.  A detached ``git worktree`` of it is
added in a temporary directory and removed on exit.  Pair i (seed i + 1)
runs ``python3 perfbench/run.py --workload W --seed i+1 --seconds S
--trace 0`` once in each tree, the base first in even pairs and this
checkout first in odd ones.  Runs go one after the other, so at most two
processes (``run.py`` and its worker) run at a time.  Each run's result is
the last line of its standard output, a JSON object; a run that prints none
is run once more, and the output records the rerun.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the JSON
written to ``--out`` holds every run's value, each side's median and
quartiles, the pairs the change wins, the median relative gap change/base - 1
over the pairs, and whether the change's median stays within the metric's
bound: not worse than the base's median by more than ``bound`` times it.
It also holds both commits, whether this checkout has uncommitted changes,
the tree ids of both ``src/``, the command, ``nproc`` and the Python and
NumPy versions.  A Markdown table of the medians goes to standard output.  The
script measures and never gates; pytest does not collect it, and
``tests/test_ab_bench.py`` checks its summary arithmetic.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def last_json(stdout: str):
    """The JSON object on the last non-empty line of stdout, or None."""
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) else None


def _stats(values: list) -> dict:
    q1, med, q3 = np.percentile(values, (25, 50, 75)) if values else (None,) * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def summarize(results: dict, metrics: list) -> dict:
    """{workload: {metric: summary}} from results = {workload: {side: [the
    JSON object of each pair's run, or None]}} and the ``end_to_end`` list of
    BENCHMARK.json.  Pairs where either run is missing are left out."""
    out = {}
    for workload, sides in results.items():
        pairs = [(b, c) for b, c in zip(sides["base"], sides["change"]) if b and c]
        out[workload] = {}
        for spec in metrics:
            name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
            base = [float(b["metrics"][name]["value"]) for b, _ in pairs]
            change = [float(c["metrics"][name]["value"]) for _, c in pairs]
            gaps = [c / b - 1.0 for b, c in zip(base, change) if b != 0]
            entry = {"base": _stats(base), "change": _stats(change),
                     "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                     "pairs": len(pairs),
                     "median_gap": float(np.median(gaps)) if gaps else None}
            mb, mc = entry["base"]["median"], entry["change"]["median"]
            entry["within_bound"] = (None if mb is None else
                                     bool(sign * (mc - mb) >= -spec["bound"] * abs(mb)))
            out[workload][name] = entry
    return out


def _fmt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def table(summary: dict, metrics: list) -> str:
    """The summary as Markdown: one row per workload and metric."""
    rows = ["| workload | metric | base median | change median | wins | median gap "
            "| within bound |", "|---|---|---|---|---|---|---|"]
    for workload, per_metric in summary.items():
        for spec in metrics:
            e = per_metric[spec["name"]]
            rows.append(f"| {workload} | {spec['name']} | {_fmt(e['base']['median'], '.4g')} "
                        f"| {_fmt(e['change']['median'], '.4g')} | {e['wins']}/{e['pairs']} "
                        f"| {_fmt(e['median_gap'], '+.2%')} | {e['within_bound']} |")
    return "\n".join(rows)


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """(the JSON object of one run.py run, or None, and its stderr tail); a
    run that takes ten times its seconds and ten minutes more is stopped."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    return last_json(proc.stdout), proc.stderr[-2000:]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    base_id = _git("rev-parse", "--verify", args.base + "^{commit}")
    results = {w: {side: [] for side in SIDES} for w in workloads}
    reruns = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        _git("worktree", "add", "--detach", str(trees["base"]), base_id)
        try:
            for workload in workloads:
                for i in range(args.pairs):
                    for side in SIDES[::-1] if i % 2 else SIDES:
                        res, err = _run(trees[side], workload, i + 1, args.seconds)
                        if res is None:
                            res, err2 = _run(trees[side], workload, i + 1, args.seconds)
                            reruns.append({"workload": workload, "pair": i, "side": side,
                                           "seed": i + 1, "stderr": err,
                                           "rerun_ok": res is not None, "rerun_stderr": err2})
                        results[workload][side].append(res)
                        print(f"{workload} pair {i} {side}: "
                              f"{'ok' if res else 'no JSON line'}", file=sys.stderr)
        finally:
            _git("worktree", "remove", "--force", str(trees["base"]))
    summary = summarize(results, bench["end_to_end"])
    record = {
        "base": base_id, "change": _git("rev-parse", "HEAD"),
        "change_tree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_trees": {"base": _git("rev-parse", base_id + ":src"),
                      "change": _git("rev-parse", "HEAD:src")},
        "command": ["python", "tests/ab_bench.py", *(argv if argv is not None else sys.argv[1:])],
        "run": "python3 perfbench/run.py --workload W --seed PAIR+1 --seconds S --trace 0",
        "pairs": args.pairs, "seconds": args.seconds,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__},
        "reruns": reruns, "summary": summary, "results": results,
    }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(table(summary, bench["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
