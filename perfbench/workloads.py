"""Seeded request generators for the three benchmark workloads.

Each workload is a repeating *cycle* of request slots. The slot table fixes
the mix (which subcommand, which model class, which sigma) so that every
seed exercises the same proportions; the seed draws everything inside a
slot: q, x, model parameters, windows, m, beta ladders and MC seeds. The
timed loop stops only on a cycle boundary, so a run always measures whole
cycles and the mix does not drift with run length.

A request is ``{"argv": [...], "meta": {...}}``. ``argv`` is exactly what
``phscale.cli.main`` receives (the worker appends ``--output``); ``meta``
records what the output checks need, and which calibration unit resembles
the request's work (``calib``, default ``scalar``). It is never passed to
the program.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

BUILTINS = ("exp1", "weibull-fit", "pareto-fit")
Q_RANGE = (1e-3, 1e3)          # closed-form q, log-uniform
MERO_M_RANGE = (25, 800)       # mero-bounds m, log-uniform
MERO_Q_RANGE = (3e-3, 0.3)     # mero-bounds q, log-uniform around BETA_BENCHMARK_Q
MC_PATHS = 20_000              # one RNG batch of phscale.mc

# closed-form cycle: (subcommand, model class, slots per cycle). Built-in
# slots are whole multiples of the 3 x 2 (model, sigma) factorial, hyperexp
# slots spread their phase counts over 1..14, so that every cycle costs about
# the same. Requests that build one scale function and return a few numbers
# (exit-prob, joint, identities) are about two thirds of the cycle, which puts
# latency_p50 among them and latency_p90 among the grid requests.
CLOSED_FORM_SLOTS = (
    ("exit-prob", "builtin", 18), ("exit-prob", "hyperexp", 9), ("exit-prob", "ph", 3),
    ("joint", "builtin", 6), ("joint", "hyperexp", 4),
    ("identities", "builtin", 6), ("identities", "hyperexp", 4), ("identities", "ph", 2),
    ("scale-eval", "builtin", 6), ("scale-eval", "hyperexp", 4), ("scale-eval", "ph", 2),
    ("overshoot", "builtin", 6), ("overshoot", "hyperexp", 2),
    ("undershoot", "builtin", 6), ("undershoot", "hyperexp", 2),
)
MERO_SLOTS = 16     # mero-bounds requests per cycle, one per log-m stratum
CGMY_SLOTS = 4      # cgmy-limit requests per cycle

HYPEREXP_PHASES = range(1, 15)
N_PH_FILES = 3


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n log-uniform draws on [lo, hi], one per equal-width log stratum, shuffled."""
    a, b = math.log(lo), math.log(hi)
    out = [math.exp(a + (b - a) * (k + rng.random()) / n) for k in range(n)]
    rng.shuffle(out)
    return out


def _alternating(rng: random.Random, n: int, values) -> list:
    """Cycle through ``values`` from a random start: balanced, seed-dependent."""
    start = rng.randrange(len(values))
    return [values[(start + k) % len(values)] for k in range(n)]


def hyperexp_spec(rng: random.Random, phases: int, sigma: float) -> dict:
    """Hyperexponential jump law with rates spanning decades, shaped like the
    pareto-fit table: tiny weights on the small rates (the heavy tail)."""
    top = rng.uniform(-0.5, 1.5)                      # log10 of the largest rate
    logs = [top]
    for _ in range(phases - 1):
        logs.append(logs[-1] - rng.uniform(0.3, 1.0))
    eta = sorted(10.0 ** v for v in logs)
    tilt = rng.uniform(0.6, 1.4)
    raw = [e ** tilt * rng.uniform(0.5, 1.5) for e in eta]
    total = sum(raw)
    p = [r / total for r in raw]
    p[-1] = 1.0 - sum(p[:-1])
    return {"drift": 5.0, "sigma": sigma, "lambda": 5.0,
            "jump": {"type": "hyperexp", "p": p, "eta": eta}}


def ph_spec(rng: random.Random, sigma: float) -> dict:
    """A non-diagonal phase-type law: a 3-phase Coxian with random rates."""
    r = sorted((rng.uniform(0.5, 6.0) for _ in range(3)), reverse=True)
    go1, go2 = rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9)
    T = [[-r[0], go1 * r[0], 0.0],
         [0.0, -r[1], go2 * r[1]],
         [0.0, 0.0, -r[2]]]
    return {"drift": 5.0, "sigma": sigma, "lambda": 5.0,
            "jump": {"type": "phase_type", "alpha": [1.0, 0.0, 0.0], "T": T}}


def _write_models(rng: random.Random, model_dir: Path) -> dict:
    """Model files for one run: {("hyperexp"|"ph", sigma): [path, ...]}."""
    model_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for sigma in (0.0, 1.0):
        for phases in HYPEREXP_PHASES:
            spec = hyperexp_spec(rng, phases, sigma)
            path = model_dir / f"hyperexp-{phases}-s{int(sigma)}.json"
            path.write_text(json.dumps(spec))
            files.setdefault(("hyperexp", sigma), []).append(str(path))
        for k in range(N_PH_FILES):
            path = model_dir / f"ph-{k}-s{int(sigma)}.json"
            path.write_text(json.dumps(ph_spec(rng, sigma)))
            files.setdefault(("ph", sigma), []).append(str(path))
    return files


def _window(rng: random.Random, lo_max: float) -> str:
    lo = rng.uniform(0.0, lo_max)
    hi = "inf" if rng.random() < 0.3 else repr(lo + rng.uniform(0.1, 3.0))
    return f"{lo!r}:{hi}"


def _closed_form_request(rng, cmd, cls, model, sigma, q) -> dict:
    if cls == "builtin":
        argv = [cmd, "--model", model, "--sigma", repr(sigma)]
    else:
        argv = [cmd, "--model", model]
    argv += ["--q", repr(q)]
    meta = {"cmd": cmd, "model": Path(model).stem if cls != "builtin" else model,
            "class": cls, "sigma": sigma, "q": q}
    if cmd == "scale-eval":
        argv += ["--grid", "0:4:401"]
    elif cmd == "exit-prob":
        x = float(rng.randint(1, 4))
        argv += ["--x", repr(x), "--b", "5.0"]
        meta.update(x=x, b=5.0)
    elif cmd in ("overshoot", "undershoot"):
        x = float(rng.randint(1, 5))
        argv += ["--x", repr(x), "--grid", "0:5:51" if cmd == "overshoot" else "0:10:51"]
        meta.update(x=x)
    elif cmd == "joint":
        x = float(rng.randint(1, 5))
        argv += ["--x", repr(x), "--a-window", _window(rng, 2.0),
                 "--b-window", _window(rng, x)]
        meta.update(x=x)
    return {"argv": argv, "meta": meta}


def closed_form_cycle(rng: random.Random, files: dict) -> list:
    cycle = []
    for cmd, cls, n in CLOSED_FORM_SLOTS:
        qs = _stratified(rng, n, *Q_RANGE)
        if cls == "builtin":
            models = [(m, s) for m in BUILTINS for s in (0.0, 1.0)] * (n // 6)
        else:
            sigmas = _alternating(rng, n, (0.0, 1.0))
            pool = len(files[(cls, 0.0)])
            picks = [int((k + rng.random()) * pool / n) for k in range(n)]
            models = [(files[(cls, s)][p], s) for p, s in zip(picks, sigmas)]
        for (model, sigma), q in zip(models, qs):
            cycle.append(_closed_form_request(rng, cmd, cls, model, sigma, q))
    rng.shuffle(cycle)
    return cycle


def mero_cycle(rng: random.Random, files: dict) -> list:
    cycle = []
    ms = _stratified(rng, MERO_SLOTS, *MERO_M_RANGE)
    qs = _stratified(rng, MERO_SLOTS, *MERO_Q_RANGE)
    for m, q in zip(ms, qs):
        m = int(round(m))
        cycle.append({"argv": ["mero-bounds", "--m", str(m), "--q", repr(q),
                               "--grid", "0:1:500"],
                      "meta": {"cmd": "mero-bounds", "m": m, "q": q}})
    for _ in range(CGMY_SLOTS):
        b1 = rng.uniform(0.5, 1.0)
        b2 = b1 * rng.uniform(0.3, 0.7)
        b3 = b2 * rng.uniform(0.2, 0.5)
        betas = ",".join(repr(b) for b in (b1, b2, b3))
        cycle.append({"argv": ["cgmy-limit", "--betas", betas, "--m", "100",
                               "--grid", "0:1:201"],
                      "meta": {"cmd": "cgmy-limit", "betas": betas}})
    rng.shuffle(cycle)
    return cycle


def mc_cycle(rng: random.Random, files: dict) -> list:
    """The paper's two simulation scenarios, 21 requests per cycle. sigma = 0
    exit requests (4 per model) are over half of the cycle, so latency_p50
    falls inside them; sigma = 0 histograms and sigma = 1 exits and
    histograms (1 per model each) are the tail, and latency_p90 falls among
    the sigma = 1 histograms."""
    slots = [("exit", 0.0, model) for model in BUILTINS for _ in range(4)]
    slots += [(mode, sigma, model) for mode, sigma in
              (("histogram", 0.0), ("exit", 1.0), ("histogram", 1.0)) for model in BUILTINS]
    cycle = []
    for mode, sigma, model in slots:
        seed = rng.randrange(2**31)
        argv = ["simulate", "--model", model, "--sigma", repr(sigma), "--mode", mode,
                "--n-paths", str(MC_PATHS), "--seed", str(seed)]
        meta = {"cmd": "simulate", "mode": mode, "model": model, "sigma": sigma,
                "calib": "vector" if sigma > 0 else "scalar"}
        if mode == "exit":
            x = float(rng.randint(1, 4))
            argv += ["--q", "0.05", "--mu", "5", "--lam", "5", "--x", repr(x), "--b", "5"]
            meta.update(q=0.05, mu=5.0, lam=5.0, x=x, b=5.0)
        else:
            argv += ["--q", "0.05", "--mu", "1", "--lam", "10", "--x", "5",
                     "--bin-width", "0.1"]
            meta.update(q=0.05, mu=1.0, lam=10.0, x=5.0)
        cycle.append({"argv": argv, "meta": meta})
    rng.shuffle(cycle)
    return cycle


# name -> (cycle generator, cycles in the fixed traced prefix, calibration units)
WORKLOADS = {
    "closed-form": (closed_form_cycle, 3, ("scalar",)),
    "mero": (mero_cycle, 2, ("scalar",)),
    "mc": (mc_cycle, 2, ("scalar", "vector")),
}


def generate(workload: str, seed: int, min_requests: int, model_dir: Path):
    """(requests, cycle_len, trace_prefix) for one run: whole cycles, at least
    ``min_requests`` and the traced prefix. Same seed, same inputs."""
    make_cycle, trace_cycles, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    files = _write_models(rng, model_dir)
    requests = make_cycle(rng, files)
    cycle_len = len(requests)
    while len(requests) < max(min_requests, trace_cycles * cycle_len):
        requests += make_cycle(rng, files)
    return requests, cycle_len, trace_cycles * cycle_len
