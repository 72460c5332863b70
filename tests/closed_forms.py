"""Closed forms that only the tests use as references: jump-law densities
and means, the beta-family and tempered-stable Levy densities; the
tail-measure double integral rho; the running-minimum atom, density and
Laplace form rebuilt from Wiener-Hopf partial fractions; partial fractions at repeated roots by
quotient differentiation; the cleared Cramer-Lundberg polynomial of
hyperexponential jumps; a 50-digit phase-type Laplace exponent with random
Coxian laws to try it on; and a scalar polynomial-times-exponential sum with
loop evaluators of a scale function built on it."""
import math
import random
from types import SimpleNamespace
from typing import List, Sequence, Tuple

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from phscale.errors import DomainError, ExponentAtPole, RepeatedRootsDetected
from phscale.fluctuation import IntervalPair
from phscale.meromorphic import BetaFamilyParams
from phscale.models import CASE2, HyperExpDist, PhaseTypeRepr, SnLevyModel
from phscale.roots import RootDecomposition
from phscale.wiener_hopf import WhCoefficients

_IMAG_TOL = 1e-10


def law_density(law, z: float) -> float:
    """Density of a HyperExpDist (sum_j p_j eta_j e^{-eta_j z}) or a
    PhaseTypeRepr (alpha e^{Tz} t) jump law at z; 0 for z < 0."""
    if z < 0:
        return 0.0
    if isinstance(law, HyperExpDist):
        p, eta = np.asarray(law.p), np.asarray(law.eta)
        return float(np.sum(p * eta * np.exp(-eta * z)))
    from scipy.linalg import expm

    T = np.asarray(law.T)
    return float(np.asarray(law.alpha) @ expm(T * z) @ -T.sum(axis=1))


def law_mean(law) -> float:
    """Mean of a HyperExpDist (sum_j p_j/eta_j) or a PhaseTypeRepr (-alpha T^{-1} 1)."""
    if isinstance(law, HyperExpDist):
        return float(np.sum(np.asarray(law.p) / np.asarray(law.eta)))
    T = np.asarray(law.T)
    return float(-np.asarray(law.alpha) @ np.linalg.solve(T, np.ones(law.m)))


def jump_density(model: SnLevyModel, z: float) -> float:
    """Jump-size density of a model; a model without jumps has none."""
    if model.lam == 0:
        raise DomainError("model has no jump component")
    return law_density(model.jumps, z)


def beta_levy_density(params: BetaFamilyParams, x: float) -> float:
    """c e^{alpha beta x} / (1 - e^{beta x})^lam for x < 0."""
    if x >= 0:
        return 0.0
    a, b = params.alpha_b, params.beta_b
    return params.c * math.exp(a * b * x) / (1.0 - math.exp(b * x)) ** params.lam


def cgmy_levy_density(tilde_c: float, tilde_alpha: float, lam: float, x: float) -> float:
    """Spectrally negative tempered-stable density c~ e^{alpha~ x}/|x|^lam, x < 0."""
    if x >= 0:
        return 0.0
    return tilde_c * math.exp(tilde_alpha * x) / abs(x) ** lam


def atom_mass(decomp: RootDecomposition) -> float:
    """Point mass of the running minimum at 0: prod_i xi_i/eta_i in the
    compound Poisson case, else 0."""
    if decomp.case != CASE2:
        return 0.0
    # one ratio per root-pole pair: the separate products overflow at m ~ 170
    return float(np.real(np.prod(decomp.xi / decomp.poles)))


def _edecay(c: float, x: float) -> float:
    """exp(-c * x) with the convention exp(-c * inf) = 0 for c > 0."""
    if math.isinf(x):
        if c > 0:
            return 0.0
        raise ExponentAtPole("exp(-c*inf) with c <= 0")
    return math.exp(-c * x)


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


def triples(coeffs) -> List[Tuple[complex, int, complex]]:
    """(xi_i, k, A_i^(k)) of partial-fraction data: the ``entries`` of
    ``multiplicity_coefficients``, or k = 1 for the simple roots of a
    package ``WhCoefficients``."""
    if isinstance(coeffs, WhCoefficients):
        return [(xi, 1, A) for xi, A in zip(coeffs.xi, coeffs.A)]
    return list(coeffs.entries)


def running_min_density(coeffs, x: float) -> float:
    """Density of -(running minimum at an exponential q-time) at x > 0."""
    total = 0.0 + 0.0j
    for xi, k, A in triples(coeffs):
        total += A * xi * (xi * x) ** (k - 1) / math.factorial(k - 1) * np.exp(-xi * x)
    if abs(total.imag) > _IMAG_TOL * (1.0 + abs(total.real)):
        raise RepeatedRootsDetected(f"density imaginary part {total.imag} at x={x}")
    return float(total.real)


def reconstruct_factor(coeffs, atom: float, s: complex) -> complex:
    """phi_q_minus(s) rebuilt from the atom and the partial fractions (Laplace form)."""
    out: complex = atom
    for xi, k, A in triples(coeffs):
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
    """A_i^(k) by differentiating phi(s) (s+xi_i)^{m_i} as a polynomial quotient,
    with m_i the number of times xi_i repeats in ``decomp.xi``."""
    neg_roots = list(zip(*np.unique(decomp.xi, return_counts=True)))
    scale = np.prod([complex(xi) ** m for xi, m in neg_roots]) / np.prod(
        [complex(eta) for eta in decomp.poles]
    )
    base_num = scale * _poly_from_roots([(eta, 1) for eta in decomp.poles])
    entries: List[Tuple[complex, int, complex]] = []
    for xi, mi in neg_roots:
        den_i = _poly_from_roots([(o, m) for o, m in neg_roots if o != xi])
        for k in range(1, mi + 1):
            num, den = base_num, den_i
            for _ in range(mi - k):
                num, den = _rational_derivative(num, den)
            val = npoly.polyval(-xi, num) / npoly.polyval(-xi, den)
            val /= math.factorial(mi - k) * complex(xi) ** k
            entries.append((xi, k, val))
    return entries


def multiplicity_coefficients(decomp: RootDecomposition) -> SimpleNamespace:
    """Partial-fraction coefficients of phi_q_minus for a decomposition with
    repeated roots (the package accepts simple roots only), laid out as
    WhCoefficients with ``entries`` (xi, k, A^(k)) in place of ``xi`` and ``A``."""
    entries = _multiplicity_coefficients(decomp)
    varrho = complex(sum(A * xi for xi, k, A in entries if k == 1))
    return SimpleNamespace(
        entries=tuple(entries),
        varrho=varrho.real,
        zeta=decomp.zeta,
        q=decomp.q,
        case=decomp.case,
    )


def cramer_lundberg_polynomial(model: SnLevyModel, q: float) -> np.ndarray:
    """Ascending coefficients of P(s) = (mu s + sigma^2 s^2/2 - q - lam (1 - sum p))
    prod_k (s + eta_k) - lam s sum_j p_j prod_{k != j} (s + eta_k) for
    hyperexponential jumps, from exact products; P vanishes at zeta and at -xi_i."""
    p, eta, lam = np.asarray(model.jumps.p), np.asarray(model.jumps.eta), model.lam
    drift = [-(q + lam * (1.0 - p.sum())), model.mu, 0.5 * model.sigma**2]
    P = npoly.polymul(drift, npoly.polyfromroots(-eta))
    for j in range(eta.size):
        rest = npoly.polyfromroots(-np.delete(eta, j))
        P = npoly.polysub(P, lam * p[j] * npoly.polymul([0.0, 1.0], rest))
    return np.trim_zeros(P, "b")


def coxian_laws(n: int, seed: int) -> List[PhaseTypeRepr]:
    """n three-phase Coxian laws with random rates in [0.5, 6] and onward
    probabilities in [0.3, 0.9], drawn as the benchmark draws its models."""
    rng, laws = random.Random(seed), []
    for _ in range(n):
        r = sorted((rng.uniform(0.5, 6.0) for _ in range(3)), reverse=True)
        go1, go2 = rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9)
        T = ((-r[0], go1 * r[0], 0.0), (0.0, -r[1], go2 * r[1]), (0.0, 0.0, -r[2]))
        laws.append(PhaseTypeRepr(alpha=(1.0, 0.0, 0.0), T=T))
    return laws


def mp_ph_psi(model: SnLevyModel):
    """(psi, psi') of a phase-type model in mpmath at the working precision,
    in the textbook form mu s + sigma^2 s^2/2 + lam (alpha (sI-T)^{-1} t - sum(alpha)):
    weights summing to 1 only within the simplex tolerance give Levy mass
    lam * sum(alpha), so psi(0) = 0."""
    mu, sigma, lam = (mpmath.mpf(v) for v in (model.mu, model.sigma, model.lam))
    T = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in model.jumps.T])
    m = T.rows
    t = -T * mpmath.matrix([1] * m)
    alpha = mpmath.matrix([[mpmath.mpf(v) for v in model.jumps.alpha]])
    mass = mpmath.fsum(alpha)

    def psi(s):
        y = mpmath.lu_solve(s * mpmath.eye(m) - T, t)
        return mu * s + sigma**2 * s**2 / 2 + lam * ((alpha * y)[0] - mass)

    def dpsi(s):
        A = s * mpmath.eye(m) - T
        return mu + sigma**2 * s - lam * (alpha * mpmath.lu_solve(A, mpmath.lu_solve(A, t)))[0]

    return psi, dpsi


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
