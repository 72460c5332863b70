"""Roots of the Cramer-Lundberg equation psi(s) = q.

``zeta`` is the unique positive root.  Where the poles ``-eta_j`` of psi are
real (hyperexponential jumps, the beta-family) the negative roots ``-xi_i``
interlace them: one in each gap (eta_{j-1}, eta_j) with eta_0 = 0, plus one
beyond the largest pole when sigma > 0.  ``interlaced_solve`` brackets zeta
and every xi and bisects all brackets together as one array.  For general
phase-type jumps the negative roots can be complex and need not interlace, so
the equation is cleared to a polynomial and solved via companion-matrix
eigenvalues; zeta still comes from the bracket solve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BracketingFailure, DomainError, RepeatedRootsDetected
from .models import CASE1, PhaseTypeRepr, SnLevyModel

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


def interlaced_roots(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One root of the vectorised ``f`` in each bracket (lo[k], hi[k]), whose ends
    may be poles.  Roots can sit extremely close to a pole when a mixture weight
    is tiny, so each bracket creeps in from a quarter width (shrinking by 8)
    until ``f`` changes sign; then all are bisected together to adjacent floats,
    returning the end with the smaller |f|."""
    d = 0.25 * (hi - lo)
    for _ in range(60):
        a, b = lo + d, hi - d
        fa, fb = np.split(f(np.concatenate((a, b))), 2)
        todo = ~((a < b) & (np.sign(fa) != np.sign(fb)))
        creep = todo & (d / 8.0 >= 8 * np.finfo(float).eps * hi)
        if not creep.any():
            break
        d[creep] /= 8.0
    if todo.any():
        k = np.flatnonzero(todo)[0]
        raise BracketingFailure(f"no sign change in ({float(lo[k])}, {float(hi[k])})")
    # f keeps the sign of fa at a; a bracket at adjacent floats has mid == a
    # or b, so it stays as it is while the others finish
    sa = np.sign(fa)
    mid = 0.5 * (a + b)
    while np.count_nonzero((a < mid) & (mid < b)):
        left = np.sign(f(mid)) == sa
        a, b = np.where(left, mid, a), np.where(left, b, mid)
        mid = 0.5 * (a + b)
    fa, fb = np.split(f(np.concatenate((a, b))), 2)
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise BracketingFailure("f is NaN inside a bracket")
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def interlaced_solve(psi, q: float, eta: np.ndarray, outer: bool) -> Tuple[float, np.ndarray]:
    """(zeta, xi) for psi(zeta) = q = psi(-xi_k), with psi vectorised and its
    poles at -eta (ascending, positive): xi_k in (eta_{k-1}, eta_k) with
    eta_0 = 0 and, if ``outer``, one more xi beyond the largest pole.  The
    zeta bracket (-top, 0) of psi(-s) = q and all xi brackets go to one
    ``interlaced_roots`` call."""
    if q <= 0:
        raise DomainError("q must be > 0")
    top = 1.0
    for _ in range(200):
        if psi(top) > q:
            break
        top *= 2.0
    else:
        raise BracketingFailure("could not bracket zeta by doubling")
    hi = np.concatenate(([0.0], eta))
    lo = np.concatenate(([-top], hi[:-1]))
    if outer:
        # psi(-s) - q < 0 just beyond the largest pole (or at s = 0 without
        # poles) and grows like sigma^2 s^2 / 2
        start = hi[-1]
        end = start + max(1.0, start)
        while psi(-end) <= q:
            end = start + 2 * (end - start)
            if end > 1e12:
                raise BracketingFailure("no bracket for the outer root")
        lo, hi = np.append(lo, start), np.append(hi, end)
    roots = interlaced_roots(lambda s: psi(-s) - q, lo, hi)
    if not np.all((lo < roots) & (roots < hi)):
        raise BracketingFailure("interlacing violated")
    zeta = float(-roots[0])
    if abs(psi(zeta) - q) > _RESIDUAL_TOL * max(1.0, q):
        raise BracketingFailure(f"zeta residual too large: {psi(zeta) - q}")
    return zeta, roots[1:]


def find_zeta(model: SnLevyModel, q: float) -> float:
    """Positive root of psi(s) = q: doubling bracket, then bisection to adjacent floats."""
    return interlaced_solve(model.laplace_exponent, q, np.array([]), False)[0]


def find_negative_roots_hyperexp(model: SnLevyModel, q: float) -> RootDecomposition:
    """zeta and all negative roots for hyperexponential jumps, one per interlacing bracket."""
    if not model.is_hyperexp:
        raise DomainError("model jumps are not hyperexponential")
    eta = model.poles()  # empty without jumps: psi has no poles
    zeta, xis = interlaced_solve(model.laplace_exponent, q, eta, model.case == CASE1)
    return RootDecomposition(
        q=q,
        zeta=zeta,
        neg_roots=tuple((float(xi), 1) for xi in xis),
        poles=tuple(eta),
        case=model.case,
    )


def check_clusters(xis: Sequence[complex]) -> None:
    """Raise RepeatedRootsDetected if two roots lie within _CLUSTER_RTOL * max(|xi_i|, |xi_j|)."""
    x = np.asarray(xis, dtype=complex)
    close = np.abs(x[:, None] - x) < _CLUSTER_RTOL * np.maximum(np.abs(x[:, None]), np.abs(x))
    if (pairs := np.argwhere(np.triu(close, 1))).size:
        i, j = pairs[0]
        raise RepeatedRootsDetected(f"roots {xis[i]} and {xis[j]} within clustering tolerance")


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


def _cl_polynomials(model: SnLevyModel, q: float) -> Tuple[np.ndarray, np.ndarray]:
    """(P, num), ascending coefficients: num(s) = alpha adj(sI-T) t and
    P(s) = (mu*s + sigma^2 s^2/2 - lam - q) det(sI-T) + lam * num(s)."""
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
    poly = np.polynomial.polynomial
    if not np.any(T - np.diag(np.diag(T))):
        # Diagonal generator (hyperexponential): assemble from exact products
        # of (s + eta_k).  The trace-based recursion below suffers severe
        # cancellation when the rates span several decades (published fitted rate sets).
        eta = -np.diag(T)
        det = poly.polyfromroots(-eta)  # prod (s + eta_k), positive coeffs
        # a deficient mixture (sum alpha < 1) leaves a constant -lam*(1-sum)
        drift = np.array(
            [-(q + model.lam * (1.0 - alpha.sum())), model.mu, 0.5 * model.sigma**2]
        )
        P = poly.polymul(drift, det)
        num = np.zeros(m)
        for j in range(m):
            rest = poly.polyfromroots(-np.delete(eta, j))
            P = poly.polyadd(P, -model.lam * alpha[j] * poly.polymul([0.0, 1.0], rest))
            num = num + alpha[j] * eta[j] * rest
        return np.trim_zeros(P, "b"), num
    charpoly, mats = _charpoly_and_adjugate_form(T)
    num = np.zeros(m)
    for k, N in enumerate(mats, start=1):
        num[m - k] += alpha @ N @ t
    drift_poly = np.array([-(model.lam + q), model.mu, 0.5 * model.sigma**2])
    P = poly.polyadd(poly.polymul(drift_poly, charpoly), model.lam * num)
    return np.trim_zeros(P, "b"), num


def cramer_lundberg_polynomial(model: SnLevyModel, q: float) -> np.ndarray:
    """Coefficients (ascending) of P(s) = (mu*s + sigma^2 s^2/2 - lam - q) det(sI-T)
    + lam * alpha adj(sI-T) t, which vanishes exactly at zeta and at -xi_i."""
    return _cl_polynomials(model, q)[0]


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
    P, num = _cl_polynomials(model, q)
    rts = np.polynomial.polynomial.polyroots(P)
    neg = [r for r in rts if r.real < 0]
    # snap near-real roots
    xis = []
    for r in neg:
        xi = -r
        if abs(xi.imag) < _IMAG_SNAP_RTOL * (1.0 + abs(xi.real)):
            xi = complex(xi.real, 0.0)
        xis.append(xi)
    check_clusters(xis)
    ev = jumps.eigenvalues()
    poles = -ev
    n_poles = len(poles)
    # warn on a (numerically) non-minimal representation: shared root of the
    # generator characteristic polynomial and the jump-transform numerator
    shared = np.abs(np.polynomial.polynomial.polyval(ev, num)) < 1e-10 * (1 + np.abs(ev)) ** jumps.m
    if shared.any():
        warnings.warn(
            "PH representation appears non-minimal: root counts may be off",
            stacklevel=2,
        )
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
