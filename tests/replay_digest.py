"""Digest of every benchmark request's result, to compare two checkouts.

Run from the repository root:

    PYTHONPATH=src python tests/replay_digest.py OUT.json

For each workload of ``perfbench/workloads.py`` (closed-form, mero, mc) and
each of the seeds 1, 2 and 3, it generates the requests of the workload's first cycle, as the
benchmark does (80 + 20 + 21 = 121 requests a seed), and serves each in
process through ``phscale.cli.main`` with ``--output``.  OUT.json maps each
request, named ``<workload>:<seed>:<index>``, to [exit code, sha256].  The
hash covers the output file without its ``# model=`` line, which names a
temporary model file for the generated laws, then the standard error and the
text of every warning raised, with the temporary directory masked.

The package comes from PYTHONPATH, the workloads from the ``perfbench/``
next to this script, which is read and not changed.  Two runs on one machine,
one against each checkout's ``src/``, give files that ``diff`` compares line
by line.  Pytest does not collect this script.
"""
import argparse
import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import phscale.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _digest(argv: list, tmp: str) -> list:
    """[exit code, sha256] of one request, served as the benchmark's worker
    serves it: argparse's rejection is its exit code."""
    out = Path(tmp) / "request.out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = phscale.cli.main(argv + ["--output", str(out)])
        except SystemExit as exc:
            code = exc.code
    text = out.read_text() if out.exists() else ""
    rows = [line for line in text.splitlines(True) if not line.startswith("# model=")]
    notes = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    h = hashlib.sha256("".join(rows).encode())
    h.update(notes.replace(tmp, "<tmp>").encode())
    return [code, h.hexdigest()]


def replay() -> dict:
    digests = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                requests, cycle_len, _ = workloads.generate(name, seed, 0, Path(tmp) / "models")
                for i, req in enumerate(requests[:cycle_len]):
                    digests[f"{name}:{seed}:{i}"] = _digest(req["argv"], tmp)
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", help="JSON file to write")
    args = ap.parse_args(argv)
    digests = replay()
    with open(args.output, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in digests.items()) + "\n}\n")
    codes = collections.Counter(code for code, _ in digests.values())
    print(f"{len(digests)} requests from {phscale.cli.__file__}; exit codes {dict(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
