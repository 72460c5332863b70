"""Scale-function bounds for the meromorphic beta-family.

The Laplace exponent is ``psi(z) = mu*z + sigma^2 z^2/2 + (c/beta)
{ B(alpha + z/beta, 1-lam) - B(alpha, 1-lam) }`` with beta function B and
``mu`` the paper's drift mu-hat.  Its poles sit at -eta_k with eta_k =
beta*(alpha + k - 1), the negative roots of psi(s) = q interlace them, and
the scale function is a countable exponential sum which we sandwich between
finite-sum bounds with an explicit truncation gap.  ``_BetaKernel`` evaluates
B(x, 1 - lam), and its derivative in x on request, with NumPy on arrays.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    InvertedBounds,
    PoleEvaluation,
    UnsupportedRegime,
)
from .models import _POLE_REL_TOL, RealPoles, check_drift, check_sigma, like
from .roots import RootDecomposition, interlaced_solve
from .scale import ScaleFunction, assemble
from .wiener_hopf import points

_MAX_M = 10**5  # the largest truncation m: the residues take O(m^2) time and memory
_SHIFT = 24  # arguments within _SHIFT of the mirror point move up by _SHIFT
# B_{2i}(1/2), i = 0..4: the Bernoulli polynomials at 1/2
_BERNOULLI_HALF = (1.0, -1.0 / 12, 7.0 / 240, -31.0 / 1344, 127.0 / 3840)


class _BetaKernel:
    """B(x, y) = Gamma(y) Gamma(x) / Gamma(x + y) for one y in (-2, 1), as
    Gamma(y) (x + y)^[y < -1] G(x) with G = Gamma(x)/Gamma(x + y1) and
    y1 = y or y + 1 in (-1, 1).

    With h = (1 - y1)/2, A = h + |x - h| is x itself for x >= h and
    1 - x - y1 below it, where the reflection formula gives
    G(x) = sin(pi (x + y1)) / sin(pi x) * G(A).  Both sine arguments are
    reduced exactly to [-1/2, 1/2] (x + y1 after the one rounding of
    x - n + fy), so the zeros of B (x + y a non-positive integer) come out
    as exact zeros.  For w = |x - h| >= _SHIFT,
    G(A) = w^-y1 exp(S(w^-2)), with S the even-power asymptotic series
    sum_k B_{2k+1}((1 + y1)/2) / (k (2k + 1)) w^-2k of log G (four terms
    leave under 1e-16); smaller w move up by _SHIFT through
    G(A) = G(A + _SHIFT) prod_j (A + y1 + j)/(A + j), every term positive."""

    def __init__(self, y: float):
        if y <= 0 and abs(y - round(y)) < _POLE_REL_TOL * (1.0 + abs(y)):
            raise PoleEvaluation(f"gamma pole at {y}")
        self.y, self.lift = y, y < -1
        y1 = y + 1.0 if self.lift else y
        py = round(y1)
        self.y1, self.fy, self.h = y1, y1 - py, 0.5 * (1.0 - y1)
        # sin pi(x + y1) = (-1)^(n + py) sin pi t with t = x - n + fy
        self.pi_s = -math.pi if py % 2 else math.pi
        self.gamma_y = math.gamma(y)
        v = 0.5 * y1
        self.s = tuple(
            sum(math.comb(2 * k + 1, 2 * i) * b * v ** (2 * k + 1 - 2 * i)
                for i, b in enumerate(_BERNOULLI_HALF[: k + 1])) / (k * (2 * k + 1))
            for k in range(1, 5))
        self.jh = np.arange(_SHIFT)[:, None] + self.h  # A + j = |x - h| + jh

    def __call__(self, x, derivative: bool = False):
        """B(x, y) at every element of an array x of any shape (a float is a
        0-d array), or (B, dB/dx) with ``derivative``: dB/dx = B (psi0(x) -
        psi0(x + y)), from d log G(A)/dA and, below h, the derivative of the
        sine ratio (dA/dx = -1).  The work runs on the flattened points."""
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        n = np.rint(x)
        r = x - n
        gap = np.abs(r) + _POLE_REL_TOL * x  # < _POLE_REL_TOL within tolerance of a pole
        if np.minimum.reduce(gap, initial=np.inf) < _POLE_REL_TOL:
            raise PoleEvaluation(f"gamma pole at {float(x[np.argmin(gap)])}")
        y = self.y1
        w = np.abs(x - self.h)
        low = (w < _SHIFT).nonzero()[0]
        wl = w[low]
        w[low] += _SHIFT
        u = 1.0 / (w * w)
        s1, s2, s3, s4 = self.s
        b = w**-y * np.exp(u * (s1 + u * (s2 + u * (s3 + u * s4)))) * self.gamma_y
        den = self.jh + wl
        num = den + y
        if derivative:
            dlog = -(y + u * (2 * s1 + u * (4 * s2 + u * (6 * s3 + u * 8 * s4)))) / w
            # summed along one contiguous row per point, as NumPy sums a single
            # point's terms, so that a point's value does not depend on the array
            dlog[low] -= np.add.reduce((y / (num * den)).T.copy(), axis=1)
        b[low] *= np.multiply.reduce(np.divide(num, den, out=num), axis=0)
        t = r + self.fy
        e = np.copysign(t - np.rint(t), t)  # sin pi e = sin pi t, |e| <= 1/2
        sin_t, sin_s, refl = np.sin(np.pi * e), np.sin(self.pi_s * r), x < self.h
        if derivative:
            db = b * dlog
            k = refl.nonzero()[0]
            cos_t = np.cos(np.pi * e[k]) * np.where(np.rint(t[k]) != 0, -1.0, 1.0)
            db[k] = b[k] / sin_s[k] * (
                np.pi * cos_t - sin_t[k] * (dlog[k] + np.pi / np.tan(np.pi * r[k])))
        np.divide(b * sin_t, sin_s, out=b, where=refl)
        if self.lift:
            if derivative:
                db = db * (x + self.y) + b
            b = b * (x + self.y)
        return (b.reshape(shape), db.reshape(shape)) if derivative else b.reshape(shape)


@dataclass(frozen=True)
class BetaFamilyParams:
    """Beta-family parameters; ``lam`` is the stability index in (0, 3), not
    a Poisson rate.  ``assemble`` reads sigma, mu, levy_mass, jump_transform;
    Monte Carlo reads mu, sigma, levy_mass and sample_jumps."""

    mu: float
    sigma: float
    alpha_b: float
    beta_b: float
    c: float
    lam: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise DomainError("beta-family parameters must be finite")
        check_sigma(self.sigma)
        if self.alpha_b <= 0 or self.beta_b <= 0 or self.c < 0:
            raise DomainError("need alpha > 0, beta > 0, c >= 0")
        if not (0 < self.lam < 3):
            raise DomainError("stability index must lie in (0, 3)")
        check_drift(self.sigma, self.mu)

    @cached_property
    def _beta(self) -> _BetaKernel:
        """B(x, 1 - lam) as a function of x."""
        return _BetaKernel(1.0 - self.lam)

    @cached_property
    def _beta0(self) -> float:
        """B(alpha, 1 - lam), the constant in the Laplace exponent."""
        return float(self._beta(self.alpha_b))

    @cached_property
    def real_poles(self) -> RealPoles:
        """c_k = c (lam)_k/k! = c B(k + lam, 1 - lam)/(Gamma(lam) Gamma(1 - lam)) and the
        poles eta_k of the density c e^{-alpha beta y} (1 - e^{-beta y})^-lam; d = psi'(0+)."""
        scale = self.c / (math.gamma(self.lam) * self._beta.gamma_y)
        return RealPoles(self.mu, self.sigma, beta_psi_derivative(self, 0.0),
                         lambda k: scale * self._beta(k + self.lam),
                         lambda k: beta_poles(self, k + 1))

    @property
    def levy_mass(self) -> float:
        """Total mass of the Levy measure, (c/beta) B(alpha, 1 - lam):
        0 for c = 0, where there is no Levy measure, else infinite for
        lam >= 1."""
        if self.c == 0:
            return 0.0
        return math.inf if self.lam >= 1 else self.c / self.beta_b * self._beta0

    def jump_transform(self, s):
        """(c/beta) B(alpha + s/beta, 1 - lam), the integral of e^{-s y} against
        the Levy measure for lam < 1, at a float or elementwise on an array."""
        s = np.asarray(s, dtype=float)
        return like(s, self.c / self.beta_b * self._beta(self.alpha_b + s / self.beta_b))

    def sample_jumps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. jump sizes for lam < 1, drawn at rate ``levy_mass``: the
        Levy density (c/beta) u^(alpha-1) (1-u)^(-lam) of u = e^{-beta y} is
        a Beta(alpha, 1 - lam) law, so y = -log(U)/beta."""
        return -np.log(rng.beta(self.alpha_b, 1.0 - self.lam, n)) / self.beta_b


def beta_psi(params: BetaFamilyParams, s):
    """Laplace exponent of the beta-family at real s, a float or an array."""
    p = params
    return _psi(p, s, (p.alpha_b, p.beta_b, p.c, p._beta0) if p.c != 0 else None)


def beta_psi_derivative(params: BetaFamilyParams, s):
    """psi'(s) at real s, a float or an array, with
    dB(x, y)/dx = B(x, y) (psi0(x) - psi0(x + y)) in the beta term."""
    p = params
    return _psi_prime(p, s, (p.alpha_b, p.beta_b, p.c) if p.c != 0 else None)


def _psi(p: BetaFamilyParams, s, jump):
    """``beta_psi`` with the mu (the paper's mu-hat), sigma and kernel of
    ``p`` and the jump = (alpha, beta, c, B(alpha, 1 - lam)), None for c = 0.
    A ladder solve gives the jump of each point's member: arrays that
    broadcast against s."""
    s = np.asarray(s, dtype=float)
    out = p.mu * s + 0.5 * p.sigma**2 * s**2
    if jump is not None:
        alpha, beta, c, b0 = jump
        out = out + (c / beta) * (p._beta(alpha + s / beta) - b0)
    return like(s, out)


def _psi_prime(p: BetaFamilyParams, s, jump):
    """``beta_psi_derivative`` as ``_psi`` gives ``beta_psi``, with
    jump = (alpha, beta, c); a float beta^2 out of the float range is a DomainError."""
    s = np.asarray(s, dtype=float)
    out = p.mu + p.sigma**2 * s
    if jump is not None:
        alpha, beta, c = jump
        try:
            scale = c / beta**2
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"beta = {beta!r}: beta^2 leaves the float range") from None
        out = out + scale * p._beta(alpha + s / beta, derivative=True)[1]
    return like(s, out)


def beta_poles(params: BetaFamilyParams, k):
    """eta_k = beta*(alpha + k - 1), the k-th pole magnitude (k >= 1, or an array)."""
    if np.any(np.asarray(k) < 1):
        raise DomainError("pole index starts at 1")
    return params.beta_b * (params.alpha_b + k - 1)


def _truncation_poles(params: BetaFamilyParams, m: int) -> np.ndarray:
    """eta_1..eta_{m+1} of an m-term truncation, refused before any root
    search: sigma = 0 with lam >= 2 (unbounded variation), m < 1 or
    m > _MAX_M (before the array), c = 0, where psi has no poles for the
    roots to interlace, and poles that are not strictly increasing, where
    alpha + k - 1 rounds to one float for several k."""
    if params.sigma == 0 and params.lam >= 2:
        raise UnsupportedRegime("sigma = 0 with stability index >= 2 "
                                "(unbounded variation) unsupported")
    if not 1 <= m <= _MAX_M:
        raise DomainError(f"m = {m}: need 1 <= m <= {_MAX_M}")
    if params.c == 0:
        raise UnsupportedRegime("c = 0: a beta-family without jumps has no poles, "
                                "so there are no roots to interlace")
    poles = beta_poles(params, np.arange(1, m + 2))
    if not np.all(poles[1:] > poles[:-1]):
        raise DomainError(f"the poles beta (alpha + k - 1), k = 1..{m + 1}, are not strictly "
                          f"increasing at alpha = {params.alpha_b}, beta = {params.beta_b}")
    return poles


def mero_roots(params: BetaFamilyParams, q: float, m: int) -> Tuple[float, np.ndarray]:
    """(zeta_q, xi_{1..m+1}) with xi_k bracketed in (eta_{k-1}, eta_k)."""
    return interlaced_solve(lambda s, k: beta_psi(params, s), q,
                            _truncation_poles(params, m), None)


@dataclass(frozen=True, eq=False)
class TruncatedMero:
    """m-truncated system with the truncation gaps delta (W/Z) and epsilon
    (W' refinement).  ``sf`` is the m-term scale function with lead
    1/psi'(zeta) and value W(0) + delta at 0: the upper bound for W and Z and
    the lower bound for W'.  Its decomposition holds xi_1..xi_m and the poles
    eta_1..eta_m; ``xi`` adds xi_{m+1}, which the gaps need.  The ``wp0`` and
    ``theta`` of ``sf`` are those of the process (inf for sigma = 0 with
    infinite jump activity, where ``epsilon`` is None); ``m`` and ``epsilon`` read ``sf``."""

    xi: np.ndarray  # xi_1 .. xi_{m+1}
    delta: float
    sf: ScaleFunction

    @property
    def m(self) -> int:
        return self.sf.xi.size

    @property
    def epsilon(self) -> Optional[float]:
        """theta - (zeta/q) varrho; None where theta = inf: sum_i A_i xi_i diverges."""
        sf = self.sf
        return sf.theta - (sf.zeta / sf.q) * sf.varrho if sf.theta < math.inf else None


def truncated_coefficients(params: BetaFamilyParams, q: float, m: int) -> TruncatedMero:
    """The m-term scale function from the first m roots and poles, through the
    closed-form pipeline, and the gaps delta_m, epsilon_m; the bounds need
    delta_m >= 0, so a negative one (at a tiny q) raises InvertedBounds."""
    zeta, xis = mero_roots(params, q, m)
    return _truncation(params, q, m, zeta, xis, beta_psi_derivative(params, zeta))


def _truncated_ladder(members: Sequence[BetaFamilyParams], q: float, m: int) -> list:
    """``truncated_coefficients`` of each member of a ladder that shares
    mu (the paper's mu-hat), sigma and lam (``cgmy_params``), from one root
    solve: one pole row per member in one ``interlaced_solve``, whose psi
    reads each bracket's alpha, beta, c and B(alpha, 1 - lam) through
    ``_psi``, with one kernel, and B(alpha, 1 - lam) and psi'(zeta) of every
    member in one array call each.  Every step is elementwise per bracket, so
    each member gets the bits of its own ``truncated_coefficients``."""
    if not members:
        return []
    poles = np.array([_truncation_poles(p, m) for p in members])
    base = members[0]
    alpha, beta, c = np.array([(p.alpha_b, p.beta_b, p.c) for p in members]).T
    # brackets per member: zeta and xi_1..xi_{m+1}
    jump = tuple(np.repeat(v, m + 2) for v in (alpha, beta, c, base._beta(alpha)))
    zetas, xis = interlaced_solve(lambda s, k: _psi(base, s, tuple(v[k] for v in jump)),
                                  q, poles, None)
    ppzs = _psi_prime(base, zetas, (alpha, beta, c))
    return [_truncation(p, q, m, float(zeta), xi, float(ppz))
            for p, zeta, xi, ppz in zip(members, zetas, xis, ppzs)]


def _truncation(params: BetaFamilyParams, q: float, m: int, zeta: float,
                xis: np.ndarray, ppz: float) -> TruncatedMero:
    """The assembly of ``truncated_coefficients`` from the roots (zeta,
    xi_{1..m+1}) and psi'(zeta) = ppz."""
    decomp = RootDecomposition(q=q, zeta=zeta, xi=xis[:m],
                               poles=beta_poles(params, np.arange(1, m + 1)))
    sf = assemble(decomp, params, ppz)
    delta = 1.0 / ppz - sf.w0 - float(sf.C.sum())
    if not delta >= 0:
        raise InvertedBounds(f"delta_m = {delta} < 0 at m = {m}, q = {q}: the bounds would cross")
    return TruncatedMero(
        xi=xis,
        delta=delta,
        # assemble's lead is w0 + sum C; the bound takes the gap at 0 instead
        sf=replace(sf, w0=sf.w0 + delta, lead=1.0 / ppz),
    )


def _w_gap(tm: TruncatedMero, xs: np.ndarray) -> np.ndarray:
    """delta_m (1 + e^{-xi_{m+1} x}), upper minus lower bound of W; an
    exponent past the float range is -inf, and its exponential 0."""
    with np.errstate(over="ignore"):
        return tm.delta * (1.0 + np.exp(-tm.xi[tm.m] * xs))


def w_bounds(tm: TruncatedMero, x):
    """(lower, upper) sandwich of W^{(q)}(x) at finite x >= 0, floats for a
    float x; gap = delta_m (1 + e^{-xi_{m+1} x})."""
    xs = points(x, above=0.0, finite=True)
    upper = tm.sf.w(xs)
    return like(x, upper - _w_gap(tm, xs)), like(x, upper)


def z_bounds(tm: TruncatedMero, x):
    """(lower, upper) for Z^{(q)}(x) at finite x >= 0, by exact integration
    of the W bounds: the Z columns of ``scale_bounds``."""
    return scale_bounds(tm, x)[2:4]


def w_prime_bounds(tm: TruncatedMero, x):
    """(lower, upper) for the derivative of the scale function at finite
    x > 0: the W' columns of ``scale_bounds``."""
    points(x, above=0.0, strict=True)
    return scale_bounds(tm, x)[4:]


def scale_bounds(tm: TruncatedMero, x):
    """(w_lower, w_upper, z_lower, z_upper, wp_lower, wp_upper) at finite
    x >= 0, all from one evaluation of the m-term scale function, whose W
    and Z are the upper bounds and whose W' is the lower bound.  The Z gap
    is q times the integral of the W gap over [0, x]; the W' bounds are NaN
    at x = 0, where they do not exist."""
    xs = points(x, above=0.0, finite=True)
    w, wp, z = tm.sf.evaluate(xs)
    xm1 = tm.xi[tm.m]
    pos = xs > 0
    p, lower = xs[pos], wp[pos]
    # t e^{-t x} peaks at t = 1/x: over the sorted xi_1..xi_m the max sits next
    # to 1/x, and over the tail t >= xi_{m+1} it is 1/(e x) or the value at xi_{m+1}
    xi = tm.sf.xi
    # a product t x or e x past the float range is inf, and e^{-t x} and
    # 1/(e x) are then 0; 1/x of a subnormal x is inf, past every xi
    with np.errstate(over="ignore"):
        near = xi[np.clip(np.searchsorted(xi, 1.0 / p) + [[-1], [0]], 0, tm.m - 1)]
        z_gap = tm.sf.q * tm.delta * (xs + (1.0 - np.exp(-xm1 * xs)) / xm1)
        head_sup = np.max(near * np.exp(-near * p), axis=0)
        tail = np.exp(-xm1 * p)
        tail_sup = np.where(xm1 <= 1.0 / p, 1.0 / (math.e * p), xm1 * tail)
    upper = lower + (head_sup + tail_sup) * tm.delta
    if tm.epsilon is not None:
        upper = np.minimum(upper, lower + head_sup * tm.delta + tail * tm.epsilon)
    wp_bounds = np.full((2, xs.size), np.nan)
    wp_bounds[:, pos] = lower, upper
    return tuple(like(x, v) for v in (w - _w_gap(tm, xs), w, z - z_gap, z, *wp_bounds))


def cgmy_params(
    base: BetaFamilyParams, tilde_alpha: float, tilde_c: float, beta: float
) -> BetaFamilyParams:
    """Beta-family member approximating the tempered-stable target:
    c = c~ beta^lam, alpha = alpha~ / beta."""
    try:
        c = tilde_c * beta**base.lam
    except OverflowError:
        raise DomainError(f"c = c~ beta^lam overflows at beta = {beta}") from None
    if c == 0 < tilde_c:
        raise DomainError(f"c = c~ beta^lam underflows to 0 at beta = {beta}")
    return BetaFamilyParams(
        mu=base.mu,
        sigma=base.sigma,
        alpha_b=tilde_alpha / beta,
        beta_b=beta,
        c=c,
        lam=base.lam,
    )


def cgmy_limit_study(
    base: BetaFamilyParams,
    tilde_alpha: float,
    tilde_c: float,
    betas: Sequence[float],
    q: float,
    m: int,
    grid: Sequence[float],
) -> dict:
    """Bound curves for a decreasing sequence of beta values plus convergence
    diagnostics: ``lower`` and ``upper`` hold the W bounds on the grid, one
    row per beta, and ``upper_sup_diff`` and ``lower_sup_diff`` the sup-norm
    differences of successive rows, inf where either curve is inf (two
    curves past the float range differ by an unbounded amount)."""
    betas = list(betas)
    if not (all(b > 0 for b in betas) and all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))):
        raise DomainError("betas must be positive and strictly decreasing")
    xs = points(grid, above=0.0, finite=True)
    members = [cgmy_params(base, tilde_alpha, tilde_c, beta) for beta in betas]
    # beta x (lower, upper) x grid
    bounds = np.reshape([w_bounds(tm, xs) for tm in _truncated_ladder(members, q, m)],
                        (len(betas), 2, xs.size))
    new, old = bounds[1:], bounds[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf, taken as inf
        diff = np.where(np.isinf(new) | np.isinf(old), np.inf, np.abs(new - old))
    sup = diff.max(axis=-1, initial=0.0)  # 0 on an empty grid
    return {"lower": bounds[:, 0], "upper": bounds[:, 1],
            "upper_sup_diff": sup[:, 1], "lower_sup_diff": sup[:, 0]}


# Benchmark beta-family scenario: infinite-activity, bounded-variation jumps
# with a small Gaussian part.
BETA_BENCHMARK = BetaFamilyParams(mu=0.1, sigma=0.2, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
BETA_BENCHMARK_Q = 0.03
