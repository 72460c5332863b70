"""Fixed units of CPU work that touch no phscale code.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, for every program alike. Running a unit between
requests measures the drift in the same process; run.py divides the
program's CPU times by it (see README.md, "Calibrated time").

The drift is not the same for all kinds of work, so each workload is
calibrated with the unit that resembles its own work: ``scalar`` (math in
Python loops and many small NumPy calls, as in root finding and per-point
evaluation) or ``vector`` (whole-array NumPy passes over 20 000 elements, as
in the Monte Carlo batches).
"""
import math
import time

import numpy as np

# each unit's typical CPU time on the machine the README describes
NOMINAL_S = {"scalar": 0.007, "vector": 0.014}


def _scalar() -> float:
    acc = 0.0
    for i in range(6_000):
        acc += math.exp(-i * 1e-4) * math.sin(i)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(600):
        acc += float(np.sum(a * np.exp(-a)))
    return acc


def _vector() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(60):
        a = rng.random(20_000)
        b = np.exp(-a) * a + np.sqrt(a + 1.0)
        acc += float(b[b > 1.2].sum())
    return acc


UNITS = {"scalar": _scalar, "vector": _vector}


def unit_cpu_s(kind: str) -> float:
    """CPU seconds of one run of unit ``kind``."""
    c0 = time.process_time()
    acc = UNITS[kind]()
    if not math.isfinite(acc):
        raise ArithmeticError("calibration unit diverged")
    return time.process_time() - c0
