"""Closed forms that only the tests use as references: the tail-measure
double integral rho; the running-minimum density and Laplace form rebuilt
from Wiener-Hopf partial fractions; partial fractions at repeated roots by
quotient differentiation; and a scalar polynomial-times-exponential sum with
loop evaluators of a scale function built on it."""
import math
from typing import List, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from phscale.errors import ExponentAtPole, RepeatedRootsDetected
from phscale.fluctuation import IntervalPair, _edecay
from phscale.models import HyperExpDist
from phscale.roots import RootDecomposition
from phscale.wiener_hopf import WhCoefficients, _atom_mass

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


def _poly_from_roots(roots_mults) -> np.ndarray:
    p = np.array([1.0 + 0.0j])
    for r, m in roots_mults:
        for _ in range(m):
            p = npoly.polymul(p, np.array([r, 1.0], dtype=complex))
    return p


def _rational_derivative(num: np.ndarray, den: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    dn = npoly.polymul(npoly.polyder(num), den)
    nd = npoly.polymul(num, npoly.polyder(den))
    return npoly.polysub(dn, nd), npoly.polymul(den, den)


def _multiplicity_coefficients(decomp: RootDecomposition) -> List[Tuple[complex, int, complex]]:
    """A_i^(k) by differentiating phi(s) (s+xi_i)^{m_i} as a polynomial quotient."""
    scale = np.prod([complex(xi) ** m for xi, m in decomp.neg_roots]) / np.prod(
        [complex(eta) for eta in decomp.poles]
    )
    base_num = scale * _poly_from_roots([(eta, 1) for eta in decomp.poles])
    entries: List[Tuple[complex, int, complex]] = []
    for xi, mi in decomp.neg_roots:
        den_i = _poly_from_roots([(o, m) for o, m in decomp.neg_roots if o != xi])
        for k in range(1, mi + 1):
            num, den = base_num, den_i
            for _ in range(mi - k):
                num, den = _rational_derivative(num, den)
            val = npoly.polyval(-xi, num) / npoly.polyval(-xi, den)
            val /= math.factorial(mi - k) * complex(xi) ** k
            entries.append((xi, k, val))
    return entries


def multiplicity_coefficients(decomp: RootDecomposition) -> WhCoefficients:
    """Partial-fraction coefficients of phi_q_minus for a decomposition with
    caller-supplied multiplicities (the package accepts simple roots only)."""
    entries = _multiplicity_coefficients(decomp)
    varrho = complex(sum(A * xi for xi, k, A in entries if k == 1))
    return WhCoefficients(
        entries=tuple(entries),
        varrho=varrho.real,
        atom_mass=_atom_mass(decomp),
        zeta=decomp.zeta,
        q=decomp.q,
        case=decomp.case,
    )


class ExpPolySum:
    """f(x) = sum over terms of poly(x) * exp(-rate * x), complex coefficients."""

    def __init__(self, terms: Sequence[Tuple[complex, np.ndarray]]):
        self.terms = [(complex(r), np.asarray(c, dtype=complex)) for r, c in terms]

    def __call__(self, x: float) -> complex:
        out = 0.0 + 0.0j
        for r, c in self.terms:
            # Horner evaluation of the polynomial factor
            p = 0.0 + 0.0j
            for coef in c[::-1]:
                p = p * x + coef
            out += p * np.exp(-r * x)
        return out

    def eval_real(self, x: float) -> float:
        v = self(x)
        if abs(v.imag) > _IMAG_TOL * (1.0 + abs(v.real)):
            raise RepeatedRootsDetected(f"imaginary residue {v.imag} at x={x}")
        return float(v.real)

    def derivative(self) -> "ExpPolySum":
        out = []
        for r, c in self.terms:
            d = np.zeros(max(len(c), 1), dtype=complex)
            if len(c) > 1:
                d[: len(c) - 1] += np.arange(1, len(c)) * c[1:]
            d[: len(c)] -= r * c
            out.append((r, d))
        return ExpPolySum(out)

    def integral0(self, x: float) -> complex:
        """Exact integral over [0, x]."""
        out = 0.0 + 0.0j
        for r, c in self.terms:
            if r == 0:
                g = np.zeros(len(c) + 1, dtype=complex)
                g[1:] = c / np.arange(1, len(c) + 1)
                p = 0.0 + 0.0j
                for coef in g[::-1]:
                    p = p * x + coef
                out += p
                continue
            # solve g' - r g = c so that (g e^{-rx})' = c e^{-rx}
            g = np.zeros(len(c), dtype=complex)
            g[-1] = -c[-1] / r
            for j in range(len(c) - 2, -1, -1):
                g[j] = ((j + 1) * g[j + 1] - c[j]) / r
            p = 0.0 + 0.0j
            for coef in g[::-1]:
                p = p * x + coef
            out += p * np.exp(-r * x) - g[0]
        return out


def loop_scale(sf) -> dict:
    """Scalar loop evaluators {name: f(x)} of W_zeta, W, W', Z and the Laplace
    transform of W, from ExpPolySum copies of the exponential sum of ``sf``."""
    tilted = ExpPolySum([(0.0, [sf.lead])]
                        + [(sf.zeta + xi, [-c]) for xi, c in zip(sf.xi, sf.C)])
    untilted = ExpPolySum([(-sf.zeta, [sf.lead])] + [(xi, [-c]) for xi, c in zip(sf.xi, sf.C)])
    slope = tilted.derivative()

    def laplace(s: float) -> float:
        # term poly * e^{-r x}: transform of x^j is j!/(s + r)^{j+1}
        out = 0.0 + 0.0j
        for r, c in untilted.terms:
            for j, coef in enumerate(c):
                out += coef * math.factorial(j) / (s + r) ** (j + 1)
        return float(out.real)

    def z(x: float) -> float:
        val = 1.0 + sf.q * untilted.integral0(x)
        if abs(val.imag) > _IMAG_TOL * (1.0 + abs(val.real)):
            raise RepeatedRootsDetected(f"imaginary residue {val.imag} at x={x}")
        return float(val.real)

    return {
        "w_tilted": tilted.eval_real,
        "w": lambda x: math.exp(sf.zeta * x) * tilted.eval_real(x),
        "w_prime": lambda x: math.exp(sf.zeta * x)
        * (sf.zeta * tilted.eval_real(x) + slope.eval_real(x)),
        "z": z,
        "laplace_transform_w": laplace,
    }
