"""Closed forms that only the tests use as references: the tail-measure
double integral rho, and the running-minimum density and Laplace form
rebuilt from Wiener-Hopf partial fractions."""
import math

import numpy as np

from phscale.errors import ExponentAtPole, RepeatedRootsDetected
from phscale.fluctuation import IntervalPair, _edecay
from phscale.models import HyperExpDist
from phscale.wiener_hopf import WhCoefficients

_IMAG_TOL = 1e-10


def _window(d: float, lo: float, hi: float) -> float:
    """(e^{-d*lo} - e^{-d*hi}) / d with the removable singularity at d = 0
    handled via expm1; ``hi`` may be infinite when d > 0."""
    if math.isinf(hi):
        if d > 0:
            return math.exp(-d * lo) / d
        raise ExponentAtPole("divergent window integral: d <= 0 with hi = inf")
    delta = hi - lo
    if d == 0.0:
        return delta
    if abs(d * delta) < 0.5:
        return math.exp(-d * lo) * (-math.expm1(-d * delta)) / d
    return (math.exp(-d * lo) - math.exp(-d * hi)) / d


def rho(K: float, pair: IntervalPair, jumps: HyperExpDist, lam: float) -> float:
    """Closed form of the tail-measure double integral over the window pair."""
    total = 0.0
    for pj, ej in zip(jumps.p, jumps.eta):
        total += (
            lam
            * pj
            * (_edecay(ej, pair.a_lo) - _edecay(ej, pair.a_hi))
            * _window(ej - K, pair.b_lo, pair.b_hi)
        )
    return total


def running_min_density(coeffs: WhCoefficients, x: float) -> float:
    """Density of -(running minimum at an exponential q-time) at x > 0."""
    total = 0.0 + 0.0j
    for xi, k, A in coeffs.entries:
        total += A * xi * (xi * x) ** (k - 1) / math.factorial(k - 1) * np.exp(-xi * x)
    if abs(total.imag) > _IMAG_TOL * (1.0 + abs(total.real)):
        raise RepeatedRootsDetected(f"density imaginary part {total.imag} at x={x}")
    return float(total.real)


def reconstruct_factor(coeffs: WhCoefficients, s: complex) -> complex:
    """phi_q_minus(s) rebuilt from atom + partial fractions (Laplace form)."""
    out: complex = coeffs.atom_mass
    for xi, k, A in coeffs.entries:
        out += A * (xi / (s + xi)) ** k
    if isinstance(out, complex) and abs(out.imag) < _IMAG_TOL * (1 + abs(out.real)):
        return float(out.real)
    return out
