"""Roots of the Cramer-Lundberg equation psi(s) = q.

``zeta`` is the unique positive root.  Where the poles ``-eta_j`` of psi are
real (a diagonal jump generator T = -diag(eta), in its minimal form; the
beta-family) the negative roots ``-xi_i`` interlace them: one in each gap
(eta_{j-1}, eta_j) with eta_0 = 0, plus one beyond the largest pole when
sigma > 0.  ``interlaced_solve`` brackets zeta and every xi and narrows all
brackets together as one array by Anderson-Bjorck (Illinois-type) secant
steps on psi with its poles cleared.  For any other T the negative roots can
be complex and need not interlace; zeta and every xi are then the
eigenvalues of one linearisation of psi(s) = q, each followed by one complex
Newton step.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BracketingFailure, DomainError, RepeatedRootsDetected
from .models import CASE1, SnLevyModel, near_pole

_RESIDUAL_TOL = 1e-10
_CLUSTER_RTOL = 1e-8
_IMAG_SNAP_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class RootDecomposition:
    """Root/pole data of psi(s) = q for one model and discount rate.

    ``xi`` holds the simple negative roots as absolute values, ascending
    (complex, with positive real part, where phase-type jumps give a
    conjugate pair); ``poles`` holds the pole magnitudes eta_j likewise.
    """

    q: float
    zeta: float
    xi: np.ndarray
    poles: np.ndarray
    case: str

    @property
    def n_roots(self) -> int:
        return self.xi.size


def interlaced_roots(
    f, lo: np.ndarray, hi: np.ndarray, pole_lo=True, pole_hi=True
) -> Tuple[np.ndarray, np.ndarray]:
    """One root of the vectorised ``f`` in each bracket (lo[k], hi[k]), and f
    there; the ends flagged by ``pole_lo``/``pole_hi`` (a bool or an array)
    are poles of f.  Roots can sit extremely close to a pole when a mixture
    weight is tiny, so each bracket probes at a quarter width from its ends,
    and where ``f`` does not change sign there, probes its ends that are no
    poles at the end itself and creeps in from its pole ends (shrinking by 8)
    until it does.  Then all brackets take Anderson-Bjorck steps together on
    g(s) = f(s) (s - lo)(hi - s), clearing only the pole ends, so g has the
    sign and root of f but no pole.  A secant point on or beyond an end moves
    2 ulps inside (Brent's minimum step); a bracket that three steps did not
    halve is bisected once.  A bracket stops at 4 ulps wide or where f = 0,
    returning the end with the smaller |f| and that f."""
    n, d = lo.size, 0.25 * (hi - lo)
    pole_lo, pole_hi = np.broadcast_to(pole_lo, lo.shape), np.broadcast_to(pole_hi, hi.shape)
    crept = np.zeros(n, dtype=bool)
    for _ in range(60):
        a = lo + np.where(pole_lo | ~crept, d, 0.0)
        b = hi - np.where(pole_hi | ~crept, d, 0.0)
        fab = f(np.concatenate((a, b)))
        fa, fb = fab[:n], fab[n:]
        todo = ~((a < b) & (np.sign(fa) != np.sign(fb)))
        creep = todo & (d / 8.0 >= 8 * np.finfo(float).eps * hi) & (pole_lo | pole_hi | ~crept)
        if not creep.any():
            break
        d[creep] /= 8.0
        crept |= creep
    if todo.any():
        k = np.flatnonzero(todo)[0]
        raise BracketingFailure(f"no sign change in ({float(lo[k])}, {float(hi[k])})")

    def clear(s, k):
        return np.where(pole_lo[k], s - lo[k], 1.0) * np.where(pole_hi[k], hi[k] - s, 1.0)

    # (x1, f1, g1) is the newest end of each bracket and (x0, f0, g0) the
    # other one, with g0 scaled down by the Anderson-Bjorck factor while x0 is kept
    x0, x1, f0, f1 = a, b, fa, fb
    g0, g1 = fa * clear(a, slice(None)), fb * clear(b, slice(None))
    width = last = np.abs(x1 - x0)
    bisect = np.zeros(n, dtype=bool)
    for step in itertools.count(1):
        ulp = np.spacing(np.maximum(np.abs(x0), np.abs(x1)))
        k = np.flatnonzero((width > 4 * ulp) & (f1 != 0))
        if not k.size:
            break
        a0, a1, h0, h1 = x0[k], x1[k], g0[k], g1[k]
        c = np.where(bisect[k], 0.5 * (a0 + a1), a1 - h1 * (a1 - a0) / (h1 - h0))
        c = np.clip(c, np.minimum(a0, a1) + 2 * ulp[k], np.maximum(a0, a1) - 2 * ulp[k])
        fc = f(c)
        gc = fc * clear(c, k)
        flip = np.sign(gc) != np.sign(h1)
        shrink = 1.0 - gc / h1
        x0[k], f0[k] = np.where(flip, a1, a0), np.where(flip, f1[k], f0[k])
        g0[k] = np.where(flip, h1, h0 * np.where(shrink > 0, shrink, 0.5))
        x1[k], f1[k], g1[k] = c, fc, gc
        width = np.abs(x1 - x0)
        if step % 3 == 0:
            bisect, last = width > 0.5 * last, width
        else:
            bisect[:] = False
    if np.isnan(f0).any() or np.isnan(f1).any():
        raise BracketingFailure("f is NaN inside a bracket")
    near = np.abs(f0) <= np.abs(f1)
    return np.where(near, x0, x1), np.where(near, f0, f1)


def interlaced_solve(
    psi, q: float, eta: np.ndarray, outer: Optional[float]
) -> Tuple[float, np.ndarray]:
    """(zeta, xi) for psi(zeta) = q = psi(-xi_k), with psi vectorised and its
    poles at -eta (ascending, positive): xi_k in (eta_{k-1}, eta_k) with
    eta_0 = 0 and, unless ``outer`` is None, one more xi beyond the largest
    pole, near eta_n + ``outer`` (2 mu / sigma^2, where sigma^2 s^2 / 2 takes
    over from the drift).  The zeta bracket (-top, 0) of psi(-s) = q and all
    xi brackets go to one ``interlaced_roots`` call, which clears the ends
    that are poles: eta_k, but not -top, 0 or the outer bracket's far end.
    The zeta residual is the f that call returns at -zeta."""
    if not 0 < q < np.inf:
        raise DomainError("q must be > 0 and finite")
    top = 1.0
    for _ in range(200):
        if psi(top) > q:
            break
        top *= 2.0
    else:
        raise BracketingFailure("could not bracket zeta by doubling")
    hi = np.concatenate(([0.0], eta))
    lo = np.concatenate(([-top], hi[:-1]))
    if outer is not None:
        # psi(-s) - q < 0 just beyond the largest pole (or at s = 0 without
        # poles); past eta_n + 2 outer, sigma^2 s^2 / 2 has overtaken the drift
        start = hi[-1]
        end = start + max(2.0 * outer, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            while (f_end := psi(-end)) <= q:
                end = start + 2 * (end - start)
            # the secant steps form products up to |f| (end - start)^2
            if not abs(f_end - q) * (end - start) * (end - start) < np.inf:
                raise BracketingFailure(f"outer root beyond the float range, near {end}")
        lo, hi = np.append(lo, start), np.append(hi, end)
    roots, resid = interlaced_roots(lambda s: psi(-s) - q, lo, hi, lo > 0, np.isin(hi, eta))
    if not np.all((lo < roots) & (roots < hi)):
        raise BracketingFailure("interlacing violated")
    if abs(resid[0]) > _RESIDUAL_TOL * max(1.0, q):
        raise BracketingFailure(f"zeta residual too large: {resid[0]}")
    return float(-roots[0]), roots[1:]


def find_zeta(model: SnLevyModel, q: float) -> float:
    """Positive root of psi(s) = q: doubling bracket, then Anderson-Bjorck steps."""
    return interlaced_solve(model.laplace_exponent, q, np.array([]), None)[0]


def check_clusters(xi) -> None:
    """Raise RepeatedRootsDetected if two roots lie within _CLUSTER_RTOL * max(|xi_i|, |xi_j|);
    positive real roots need only their sorted neighbours (x_i < x_j that close
    make x_j and its predecessor so)."""
    x = np.asarray(xi)
    if not np.iscomplexobj(x) and np.all(x > 0):
        x = np.sort(x)
        pairs = np.flatnonzero(np.diff(x) < _CLUSTER_RTOL * x[1:])[:, None] + [0, 1]
    else:
        close = np.abs(x[:, None] - x) < _CLUSTER_RTOL * np.maximum(np.abs(x[:, None]), np.abs(x))
        pairs = np.argwhere(np.triu(close, 1))
    if pairs.size:
        i, j = pairs[0]
        raise RepeatedRootsDetected(f"roots {x[i]} and {x[j]} within clustering tolerance")


def _snap_real(z: np.ndarray) -> np.ndarray:
    """z without imaginary parts below _IMAG_SNAP_RTOL * (1 + |Re z|); real if none is left."""
    z = np.where(np.abs(z.imag) < _IMAG_SNAP_RTOL * (1.0 + np.abs(z.real)), z.real, z)
    return z if z.imag.any() else z.real


def find_negative_roots_ph(model: SnLevyModel, q: float) -> RootDecomposition:
    """zeta and all negative roots for phase-type jumps, as the eigenvalues of
    one linearisation of psi(s) = q (Asmussen, Avram and Pistorius 2004).

    With u = (sI - T)^{-1} t w, the equation reads s u = T u + t w and
    lam alpha u + (mu s + sigma^2 s^2/2 - levy_mass - q) w = 0: state
    (u, w, s w) for sigma > 0 and (u, w) for sigma = 0 give a matrix of size
    m + 2 or m + 1 whose eigenvalues are the roots of the model's psi.  Each
    takes one complex Newton step on psi, except a root on an eigenvalue of
    T: a pole that the jump transform cancels, which warns of a non-minimal
    representation."""
    if not 0 < q < np.inf:
        raise DomainError("q must be > 0 and finite")
    alpha, T, t, poles, _ = model.phase_type
    m = alpha.size
    n = m + 2 if model.case == CASE1 else m + 1
    M = np.zeros((n, n))
    M[:m, :m], M[:m, m] = T, t
    M[-1, : m + 1] = np.append(-model.lam * alpha, model.levy_mass + q)
    if model.case == CASE1:
        M[m, m + 1], M[-1, -1] = 1.0, -model.mu
        M[-1] /= 0.5 * model.sigma**2
    else:
        M[-1] /= model.mu
    roots = np.linalg.eigvals(M)
    on_pole = near_pole(roots, poles)[1].any(axis=1)
    if on_pole.any():
        warnings.warn(
            "PH representation appears non-minimal: root counts may be off",
            stacklevel=2,
        )
    s = roots[~on_pole]
    roots[~on_pole] = s - (model.laplace_exponent(s) - q) / model.laplace_exponent_derivative(s)
    roots = _snap_real(roots)
    neg = roots.real < 0
    xi = np.sort(-roots[neg])
    expected = n - 1  # every root but zeta
    if xi.size != expected:
        raise BracketingFailure(
            f"expected {expected} negative roots for {model.case}, found {xi.size}"
        )
    return RootDecomposition(
        q=q,
        zeta=float(roots[~neg].real[0]),
        xi=xi,
        poles=np.sort(_snap_real(poles)),
        case=model.case,
    )


def find_roots(model: SnLevyModel, q: float) -> RootDecomposition:
    """zeta and all negative roots: one ``interlaced_solve`` between the poles
    for a diagonal jump generator T or no jumps (lam = 0, where psi has no
    poles), the eigenvalue linearisation otherwise."""
    if model.lam != 0 and not model.phase_type.diagonal:
        return find_negative_roots_ph(model, q)
    eta = model.poles()
    outer = 2.0 * model.mu / model.sigma**2 if model.case == CASE1 else None
    zeta, xi = interlaced_solve(model.laplace_exponent, q, eta, outer)
    return RootDecomposition(q=q, zeta=zeta, xi=xi, poles=eta, case=model.case)
