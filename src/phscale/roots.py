"""Roots of the Cramer-Lundberg equation psi(s) = q.

``zeta`` is the unique positive root; the negative roots ``-xi_i`` interlace
the poles ``-eta_j`` in the hyperexponential case and are found by bracketed
bisection there.  For general phase-type jumps the equation is cleared to a
polynomial and solved via companion-matrix eigenvalues.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .errors import BracketingFailure, DomainError, PhscaleError, RepeatedRootsDetected
from .models import CASE1, CASE2, HyperExpDist, PhaseTypeRepr, SnLevyModel

_ROOT_XTOL = 1e-12
_RESIDUAL_TOL = 1e-10
_CLUSTER_RTOL = 1e-8
_IMAG_SNAP_RTOL = 1e-8


@dataclass(frozen=True)
class RootDecomposition:
    """Root/pole data of psi(s) = q for one model and discount rate.

    ``neg_roots`` holds (xi, multiplicity) with xi the absolute value of a
    negative root (possibly complex with positive real part).
    """

    q: float
    zeta: float
    neg_roots: Tuple[Tuple[complex, int], ...]
    poles: Tuple[float, ...]
    case: str

    @property
    def xis(self) -> List[complex]:
        """Roots repeated according to multiplicity."""
        out: List[complex] = []
        for xi, mult in self.neg_roots:
            out.extend([xi] * mult)
        return out

    @property
    def n_roots(self) -> int:
        return sum(m for _, m in self.neg_roots)

    @property
    def all_simple(self) -> bool:
        return all(m == 1 for _, m in self.neg_roots)


def _newton_polish(model: SnLevyModel, q: float, s: float, steps: int = 3) -> float:
    for _ in range(steps):
        d = model.laplace_exponent_derivative(s)
        if d == 0:
            break
        s = s - (model.laplace_exponent(s) - q) / d
    return s


def find_zeta(model: SnLevyModel, q: float) -> float:
    """Positive root of psi(s) = q, by doubling bracket + bisection + Newton polish."""
    if q <= 0:
        raise DomainError("q must be > 0")
    psi = model.laplace_exponent
    hi = 1.0
    for _ in range(200):
        if psi(hi) > q:
            break
        hi *= 2.0
    else:
        raise BracketingFailure("could not bracket zeta by doubling")
    zeta = brentq(lambda s: psi(s) - q, 0.0, hi, xtol=_ROOT_XTOL)
    zeta = _newton_polish(model, q, zeta)
    if abs(psi(zeta) - q) > _RESIDUAL_TOL * max(1.0, q):
        raise BracketingFailure(f"zeta residual too large: {psi(zeta) - q}")
    return float(zeta)


_BRENTQ_RTOL = 4 * np.finfo(float).eps


def _bisect_neg(model: SnLevyModel, q: float, lo: float, hi: float) -> float:
    """Single root of psi(-s) = q in (lo, hi); endpoints may be poles.

    Roots can sit extremely close to a pole when a mixture weight is tiny, so
    the bracket creeps toward the endpoints until a sign change appears and the
    solve runs at machine-level relative tolerance.
    """
    f = lambda s: model.laplace_exponent(-s) - q
    width = hi - lo
    d = 0.25 * width
    for _ in range(60):
        a, b = lo + d, hi - d
        if a < b and np.sign(f(a)) != np.sign(f(b)):
            root = brentq(f, a, b, xtol=1e-30, rtol=_BRENTQ_RTOL)
            try:
                polished = -_newton_polish(model, q, -root)
                if a < polished < b and abs(f(polished)) <= abs(f(root)):
                    root = polished
            except PhscaleError:
                pass
            return float(root)
        d /= 8.0
        if d < 8 * np.finfo(float).eps * hi:
            break
    raise BracketingFailure(f"no sign change in ({lo}, {hi})")


def interlaced_roots(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One root of the vectorised ``f`` in each bracket (lo[k], hi[k]), whose ends
    may be poles.  As in ``_bisect_neg`` each bracket creeps in from a quarter
    width (shrinking by 8) until ``f`` changes sign; then all are bisected
    together to adjacent floats, returning the end with the smaller |f|."""
    d = 0.25 * (hi - lo)
    for _ in range(60):
        a, b = lo + d, hi - d
        fa, fb = f(a), f(b)
        todo = ~((a < b) & (np.sign(fa) != np.sign(fb)))
        creep = todo & (d / 8.0 >= 8 * np.finfo(float).eps * hi)
        if not creep.any():
            break
        d[creep] /= 8.0
    if todo.any():
        k = np.flatnonzero(todo)[0]
        raise BracketingFailure(f"no sign change in ({float(lo[k])}, {float(hi[k])})")
    mid = 0.5 * (a + b)
    while (live := np.flatnonzero((a < mid) & (mid < b))).size:
        fm = f(mid[live])
        left = np.sign(fm) == np.sign(fa[live])
        k, j = live[left], live[~left]
        a[k], fa[k] = mid[k], fm[left]
        b[j], fb[j] = mid[j], fm[~left]
        mid = 0.5 * (a + b)
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise BracketingFailure("f is NaN inside a bracket")
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def find_negative_roots_hyperexp(model: SnLevyModel, q: float) -> RootDecomposition:
    """All negative roots for hyperexponential jumps, one per interlacing bracket."""
    if not model.is_hyperexp:
        raise DomainError("model jumps are not hyperexponential")
    if q <= 0:
        raise DomainError("q must be > 0")
    if model.lam > 0:
        eta = np.asarray(model.jumps.eta, dtype=float)
    else:
        eta = np.array([])  # no jumps: psi has no poles
    zeta = find_zeta(model, q)
    brackets = [(0.0, eta[0])] if eta.size else []
    brackets += [(eta[j], eta[j + 1]) for j in range(len(eta) - 1)]
    xis = [_bisect_neg(model, q, lo, hi) for lo, hi in brackets]
    if model.case == CASE1:
        # one extra root beyond the largest pole
        f = lambda s: model.laplace_exponent(-s) - q
        lo = float(eta[-1]) if eta.size else 0.0
        hi = lo + max(1.0, lo)
        d = 1e-9 * (hi - lo)
        while not (f(lo + d) < 0 < f(hi)):
            if f(hi) <= 0:
                hi = lo + 2 * (hi - lo)
            else:
                d /= 8.0
            if hi > 1e12:
                raise BracketingFailure("no bracket for the outer root")
        root = brentq(f, lo + d, hi, xtol=_ROOT_XTOL)
        xis.append(-_newton_polish(model, q, -root))
    xis = sorted(float(x) for x in xis)
    _check_interlacing(xis, eta, model.case)
    return RootDecomposition(
        q=q,
        zeta=zeta,
        neg_roots=tuple((xi, 1) for xi in xis),
        poles=tuple(eta),
        case=model.case,
    )


def _check_interlacing(xis: Sequence[float], eta: np.ndarray, case: str) -> None:
    m = len(eta)
    expected = m + 1 if case == CASE1 else m
    if len(xis) != expected:
        raise BracketingFailure(f"expected {expected} roots, found {len(xis)}")
    for k in range(m):
        if not xis[k] < eta[k]:
            raise BracketingFailure("interlacing violated")
        if k + 1 < len(xis) and not eta[k] < xis[k + 1]:
            raise BracketingFailure("interlacing violated")


def _charpoly_and_adjugate_form(T: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Faddeev-LeVerrier: char poly of T (monic, ascending) and the matrices
    N_k with adj(sI - T) = sum_k N_k s^{m-k}."""
    m = T.shape[0]
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0  # s^m
    N = np.eye(m)
    mats = [N]
    c = -np.trace(T @ N)
    coeffs[m - 1] = c
    for k in range(2, m + 1):
        N = T @ mats[-1] + coeffs[m - k + 1] * np.eye(m)
        if k < m + 1:
            mats.append(N)
        c = -np.trace(T @ N) / k
        if m - k >= 0:
            coeffs[m - k] = c
    return coeffs, mats[:m]


def cramer_lundberg_polynomial(model: SnLevyModel, q: float) -> np.ndarray:
    """Coefficients (ascending) of P(s) = (mu*s + sigma^2 s^2/2 - lam - q) det(sI-T)
    + lam * alpha adj(sI-T) t, which vanishes exactly at zeta and at -xi_i."""
    if model.is_hyperexp:
        jumps = model.jumps.as_phase_type()
    elif isinstance(model.jumps, PhaseTypeRepr):
        jumps = model.jumps
    else:
        raise DomainError("PH jumps required")
    T = np.asarray(jumps.T, dtype=float)
    t = jumps.exit_rates
    alpha = np.asarray(jumps.alpha, dtype=float)
    m = T.shape[0]
    if not np.any(T - np.diag(np.diag(T))):
        # Diagonal generator (hyperexponential): assemble from exact products
        # of (s + eta_k).  The trace-based recursion below suffers severe
        # cancellation when the rates span several decades (published fitted rate sets).
        poly = np.polynomial.polynomial
        eta = -np.diag(T)
        det = poly.polyfromroots(-eta)  # prod (s + eta_k), positive coeffs
        # a deficient mixture (sum alpha < 1) leaves a constant -lam*(1-sum)
        drift = np.array(
            [-(q + model.lam * (1.0 - alpha.sum())), model.mu, 0.5 * model.sigma**2]
        )
        P = poly.polymul(drift, det)
        for j in range(m):
            rest = poly.polyfromroots(-np.delete(eta, j))
            P = poly.polyadd(P, -model.lam * alpha[j] * poly.polymul([0.0, 1.0], rest))
        return np.trim_zeros(P, "b")
    charpoly, mats = _charpoly_and_adjugate_form(T)
    # numerator polynomial of alpha adj(sI-T) t, ascending coefficients
    num = np.zeros(m)
    for k, N in enumerate(mats, start=1):
        num[m - k] += alpha @ N @ t
    drift_poly = np.array([-(model.lam + q), model.mu, 0.5 * model.sigma**2])
    P = np.polynomial.polynomial.polymul(drift_poly, charpoly)
    P = np.polynomial.polynomial.polyadd(P, model.lam * num)
    return np.trim_zeros(P, "b")


def find_negative_roots_ph(model: SnLevyModel, q: float) -> RootDecomposition:
    """Negative roots for PH jumps via companion-matrix eigenvalues of the
    cleared-denominator polynomial; raises on clustered roots."""
    if q <= 0:
        raise DomainError("q must be > 0")
    if model.is_hyperexp:
        jumps = model.jumps.as_phase_type()
    else:
        jumps = model.jumps
    zeta = find_zeta(model, q)
    P = cramer_lundberg_polynomial(model, q)
    rts = np.polynomial.polynomial.polyroots(P)
    neg = [r for r in rts if r.real < 0]
    # snap near-real roots
    xis = []
    for r in neg:
        xi = -r
        if abs(xi.imag) < _IMAG_SNAP_RTOL * (1.0 + abs(xi.real)):
            xi = complex(xi.real, 0.0)
        xis.append(xi)
    for i in range(len(xis)):
        for j in range(i + 1, len(xis)):
            if abs(xis[i] - xis[j]) < _CLUSTER_RTOL * (1.0 + abs(xis[i])):
                raise RepeatedRootsDetected(
                    f"roots {xis[i]} and {xis[j]} within clustering tolerance"
                )
    poles = -jumps.eigenvalues()
    n_poles = len(poles)
    # warn on a (numerically) non-minimal representation: shared root of the
    # generator characteristic polynomial and the jump-transform numerator
    charpoly, mats = _charpoly_and_adjugate_form(np.asarray(jumps.T))
    num = np.zeros(jumps.m)
    alpha = np.asarray(jumps.alpha)
    t = jumps.exit_rates
    for k, N in enumerate(mats, start=1):
        num[jumps.m - k] += alpha @ N @ t
    for ev in jumps.eigenvalues():
        if abs(np.polynomial.polynomial.polyval(ev, num)) < 1e-10 * (1 + abs(ev)) ** jumps.m:
            warnings.warn(
                "PH representation appears non-minimal: root counts may be off",
                stacklevel=2,
            )
            break
    expected = n_poles + 1 if model.case == CASE1 else n_poles
    if len(xis) != expected:
        raise BracketingFailure(
            f"expected {expected} negative roots for {model.case}, found {len(xis)}"
        )
    xis.sort(key=lambda z: (z.real, z.imag))
    pole_list = []
    for p in sorted(poles, key=lambda z: (z.real, z.imag)):
        if abs(p.imag) < _IMAG_SNAP_RTOL * (1.0 + abs(p.real)):
            pole_list.append(float(p.real))
        else:
            pole_list.append(complex(p))
    return RootDecomposition(
        q=q,
        zeta=zeta,
        neg_roots=tuple((xi if xi.imag != 0 else float(xi.real), 1) for xi in xis),
        poles=tuple(pole_list),
        case=model.case,
    )


def find_roots(model: SnLevyModel, q: float) -> RootDecomposition:
    """Dispatch: interlaced bisection for hyperexponential jumps, polynomial
    companion solve otherwise."""
    if model.is_hyperexp:
        return find_negative_roots_hyperexp(model, q)
    return find_negative_roots_ph(model, q)
