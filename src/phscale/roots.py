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

from .errors import BracketingFailure, RepeatedRootsDetected
from .models import SnLevyModel, check_positive, near_pole

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

    @property
    def n_roots(self) -> int:
        return self.xi.size


def interlaced_roots(
    f, lo: np.ndarray, hi: np.ndarray, pole_lo=True, pole_hi=True
) -> Tuple[np.ndarray, np.ndarray]:
    """One root of the vectorised ``f`` in each bracket (lo[k], hi[k]), and f
    there; the ends flagged by ``pole_lo``/``pole_hi`` (a bool or an array)
    are poles of f.  f(s, k) takes points s whose last axis runs over the
    brackets k, an index array or the slice of all brackets, so that f can
    read parameters of its own per bracket; s holds one point per bracket, or
    both ends of each as two rows.  Roots can sit extremely close to a pole
    when a mixture weight is tiny, so each bracket probes at a quarter width
    from its ends, and where ``f`` does not change sign there, probes its
    ends that are no poles at the end itself and creeps in from its pole ends
    (shrinking by 8) until it does; each creep pass evaluates f at the
    brackets that creep only.  Then all brackets take Anderson-Bjorck steps
    together on g(s) = f(s) (s - lo)(hi - s), clearing only the pole ends, so
    g has the sign and root of f but no pole.  A secant point on or beyond an
    end moves 2 ulps inside (Brent's minimum step); a bracket that three
    steps did not halve is bisected once.  A bracket stops at 4 ulps wide or
    where f = 0, returning the end with the smaller |f| and that f.  Every
    operation is elementwise per bracket, so a bracket's steps do not depend
    on the others."""
    n, d = lo.size, 0.25 * (hi - lo)
    pole_lo, pole_hi = np.broadcast_to(pole_lo, lo.shape), np.broadcast_to(pole_hi, hi.shape)
    # 1 at a pole end and 0 at the others: the creep moves the pole ends only
    sl, sh = pole_lo.astype(float), pole_hi.astype(float)
    every = slice(None)
    crept = np.zeros(n, dtype=bool)
    floor = 8 * np.finfo(float).eps * hi
    a, b = lo + d, hi - d
    fa, fb = f(np.concatenate((a, b)).reshape(2, n), every)
    for _ in range(59):
        todo = ~((a < b) & (np.sign(fa) != np.sign(fb)))
        k = (todo & (d / 8.0 >= floor) & (pole_lo | pole_hi | ~crept)).nonzero()[0]
        if not k.size:
            break
        d[k] /= 8.0
        crept[k] = True
        a[k] = lo[k] + d[k] * sl[k]
        b[k] = hi[k] - d[k] * sh[k]
        fa[k], fb[k] = f(np.concatenate((a[k], b[k])).reshape(2, k.size), k)
    if todo.any():
        k = todo.nonzero()[0][0]
        raise BracketingFailure(f"no sign change in ({float(lo[k])}, {float(hi[k])})")

    # (s - lo)(hi - s) at the pole ends and 1 at the others, as
    # (s sl - ol)(oh - s sh): every product and difference is exact
    ol, oh = np.where(pole_lo, lo, -1.0), np.where(pole_hi, hi, 1.0)

    def clear(s, k):
        return (s * sl[k] - ol[k]) * (oh[k] - s * sh[k])

    # (x1, f1, g1) is the newest end of each bracket and (x0, f0, g0) the
    # other one, with g0 scaled down by the Anderson-Bjorck factor while x0 is
    # kept; while every bracket is live, k is a slice and nothing is gathered
    x0, x1, f0, f1 = a, b, fa, fb
    g0, g1 = fa * clear(a, every), fb * clear(b, every)
    width = last = np.abs(x1 - x0)
    bisect = None  # after every third step: the brackets it did not halve
    for step in itertools.count(1):
        ulp2 = 2 * np.spacing(np.maximum(np.abs(x0), np.abs(x1)))
        k = ((width > 2 * ulp2) & (f1 != 0)).nonzero()[0]
        if k.size == n:
            k = every
        elif not k.size:
            break
        a0, a1, h0, h1, u2 = x0[k], x1[k], g0[k], g1[k], ulp2[k]
        c = a1 - h1 * (a1 - a0) / (h1 - h0)
        if bisect is not None:
            c = np.where(bisect[k], 0.5 * (a0 + a1), c)
        c = np.minimum(np.maximum(c, np.minimum(a0, a1) + u2), np.maximum(a0, a1) - u2)
        fc = f(c, k)
        gc = fc * clear(c, k)
        flip = np.sign(gc) != np.sign(h1)
        shrink = 1.0 - gc / h1
        np.copyto(shrink, 0.5, where=~(shrink > 0))
        h0, v0 = h0 * shrink, f0[k]
        for old, new in ((a0, a1), (v0, f1[k]), (h0, h1)):
            np.copyto(old, new, where=flip)  # the newest end replaces the other
        x0[k], f0[k], g0[k] = a0, v0, h0
        x1[k], f1[k], g1[k] = c, fc, gc
        width = np.abs(x1 - x0)
        if step % 3 == 0:
            bisect, last = width > 0.5 * last, width
        else:
            bisect = None
    if np.isnan(f0).any() or np.isnan(f1).any():
        raise BracketingFailure("f is NaN inside a bracket")
    near = np.abs(f0) <= np.abs(f1)
    return np.where(near, x0, x1), np.where(near, f0, f1)


# the powers 2^j of the doubling rule of ``interlaced_solve``
_TOPS = 2.0 ** np.arange(16)
_FAR = 2.0 ** np.arange(16, 200)


def interlaced_solve(
    psi, q: float, eta: np.ndarray, outer: Optional[float]
) -> Tuple[float, np.ndarray]:
    """(zeta, xi) for psi(zeta) = q = psi(-xi_k), with psi vectorised and its
    poles at -eta (ascending, positive): xi_k in (eta_{k-1}, eta_k) with
    eta_0 = 0 and, unless ``outer`` is None, one more xi beyond the largest
    pole, near eta_n + ``outer`` (2 mu / sigma^2, where sigma^2 s^2 / 2 takes
    over from the drift).  All brackets go to one ``interlaced_roots`` call
    on f(s) = psi(-s) - q, which clears the ends that are poles (eta_k); its
    f at -zeta is the zeta residual.  One doubling rule finds the unbounded
    ends: base + unit 2^j at the first j where f > 0, with (base, unit) =
    (0, -1) for zeta and (eta_n, max(2 outer, 1)) for the outer root (n may be 0).
    Every end tries j < 16 in one psi call, and j = 16 .. 199 in one more if
    it needs them: psi gives a point the same bits in an array of any size,
    so this is the j that doubling one at a time finds, and psi sees arrays only.

    psi(s, k) takes the points s and the index k of their brackets
    (``interlaced_roots``), which broadcasts against s.  A 2-d ``eta`` holds
    the poles of several Laplace exponents, one row each (a ladder of models,
    with ``outer`` None): all their brackets, row after row with zeta first,
    go to the one call, psi reads each bracket's parameters through k, and
    zeta and xi come as one row per exponent.  One row's psi ignores k."""
    check_positive("q", q)
    rows = np.atleast_2d(eta)
    n_rows, n = rows.shape
    width = n + 1 + (outer is not None)
    k0 = np.arange(0, n_rows * width, width)  # the zeta bracket of each row
    # each row of hi holds 0, eta and the outer end; lo holds the zeta end and
    # the ends of hi before its own
    hi = np.zeros((n_rows, width))
    hi[:, 1:n + 1] = rows
    hi, pole_hi = hi.ravel(), hi.ravel() > 0  # the outer end is still 0

    def f(s, k):
        return psi(-s, k) - q
    # f < 0 just past eta_n; past eta_n + 2 outer, sigma^2 s^2 / 2 beats the drift
    ends = k0 if outer is None else np.append(k0, width - 1)
    base, unit = np.zeros((ends.size, 1)), np.full((ends.size, 1), -1.0)
    if outer is not None:
        base[-1], unit[-1] = hi[-2], max(2.0 * outer, 1.0)
    end, f_end, k = np.empty(ends.size), np.empty(ends.size), slice(None)
    # the powers past the root can overflow psi; they are not used
    with np.errstate(over="ignore", invalid="ignore"):
        for powers in (_TOPS, _FAR):
            s = base[k] + unit[k] * powers
            fs = f(s, ends[k, None])
            at = np.arange(len(s)), (fs > 0).argmax(axis=1)
            end[k], f_end[k] = s[at], fs[at]
            if not (k := (~(f_end > 0)).nonzero()[0]).size:
                break
        else:
            raise BracketingFailure("could not bracket a root by doubling")
        # the secant steps form products up to |f| (end - eta_n)^2
        d = end[-1] - base[-1, 0]
        if outer is not None and not abs(f_end[-1]) * d * d < np.inf:
            raise BracketingFailure(f"outer root beyond the float range, near {end[-1]}")
    hi[ends[n_rows:]] = end[n_rows:]
    lo = np.concatenate(([0.0], hi[:-1]))
    lo[k0] = end[:n_rows]
    roots, resid = interlaced_roots(f, lo, hi, lo > 0, pole_hi)
    if not np.all((lo < roots) & (roots < hi)):
        raise BracketingFailure("interlacing violated")
    bad = (np.abs(resid[k0]) > _RESIDUAL_TOL * max(1.0, q)).nonzero()[0]
    if bad.size:
        raise BracketingFailure(f"zeta residual too large: {resid[k0[bad[0]]]}")
    roots = roots.reshape(n_rows, width)
    if np.ndim(eta) == 1:
        return float(-roots[0, 0]), roots[0, 1:]
    return -roots[:, 0], roots[:, 1:]


def find_zeta(model: SnLevyModel, q: float) -> float:
    """Positive root of psi(s) = q: doubling bracket, then Anderson-Bjorck steps."""
    return interlaced_solve(lambda s, k: model.laplace_exponent(s), q, np.array([]), None)[0]


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
    check_positive("q", q)
    alpha, T, t, poles, _ = model.phase_type
    m = alpha.size
    n = m + 2 if model.sigma > 0 else m + 1
    M = np.zeros((n, n))
    M[:m, :m], M[:m, m] = T, t
    M[-1, : m + 1] = np.append(-model.lam * alpha, model.levy_mass + q)
    if model.sigma > 0:
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
            f"expected {expected} negative roots for sigma = {model.sigma}, found {xi.size}"
        )
    return RootDecomposition(q=q, zeta=float(roots[~neg].real[0]), xi=xi,
                             poles=np.sort(_snap_real(poles)))


def find_roots(model: SnLevyModel, q: float) -> RootDecomposition:
    """zeta and all negative roots: one ``interlaced_solve`` between the poles
    for a diagonal jump generator T (none for the empty law without jumps),
    the eigenvalue linearisation otherwise."""
    if not model.phase_type.diagonal:
        return find_negative_roots_ph(model, q)
    eta = model.phase_type.poles
    outer = 2.0 * model.mu / model.sigma**2 if model.sigma > 0 else None
    zeta, xi = interlaced_solve(lambda s, k: model.laplace_exponent(s), q, eta, outer)
    return RootDecomposition(q=q, zeta=zeta, xi=xi, poles=eta)
