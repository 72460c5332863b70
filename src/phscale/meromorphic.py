"""Scale-function bounds for the meromorphic beta-family.

The Laplace exponent is ``psi(z) = mu_hat*z + sigma^2 z^2/2
+ (c/beta) { B(alpha + z/beta, 1-lam) - B(alpha, 1-lam) }`` with beta function
B.  Its poles sit at -eta_k with eta_k = beta*(alpha + k - 1), the negative
roots of psi(s) = q interlace them, and the scale function is a countable
exponential sum which we sandwich between finite-sum bounds with an explicit
truncation gap.  ``_BetaKernel`` evaluates B(x, 1 - lam), and its derivative
in x on request, with NumPy on arrays; one point is an array of one.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    NegativeSubordinator,
    PoleEvaluation,
    UnsupportedRegime,
)
from .models import CASE1, CASE2, check_sigma_square
from .roots import RootDecomposition, interlaced_solve
from .scale import ScaleFunction, assemble
from .wiener_hopf import like, points

_POLE_TOL = 1e-12
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
        if y <= 0 and abs(y - round(y)) < _POLE_TOL * (1.0 + abs(y)):
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

    def __call__(self, x: np.ndarray, derivative: bool = False):
        """B(x, y) at every element of a 1-D array x, or (B, dB/dx) with
        ``derivative``: dB/dx = B (psi0(x) - psi0(x + y)), from d log G(A)/dA
        and, below h, the derivative of the sine ratio (dA/dx = -1)."""
        n = np.rint(x)
        r = x - n
        gap = np.abs(r) + _POLE_TOL * x  # < _POLE_TOL within tolerance of a pole
        if np.minimum.reduce(gap, initial=np.inf) < _POLE_TOL:
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
            dlog[low] -= np.add.reduce(y / (num * den), axis=0)
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
        return (b, db) if derivative else b


@dataclass(frozen=True)
class BetaFamilyParams:
    """Beta-family parameters; ``lam`` is the stability index in (0, 3),
    not a Poisson rate."""

    mu_hat: float
    sigma: float
    alpha_b: float
    beta_b: float
    c: float
    lam: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise DomainError("beta-family parameters must be finite")
        if self.sigma < 0:
            raise NegativeSubordinator("sigma must be >= 0")
        check_sigma_square(self.sigma)
        if self.alpha_b <= 0 or self.beta_b <= 0 or self.c < 0:
            raise DomainError("need alpha > 0, beta > 0, c >= 0")
        if not (0 < self.lam < 3):
            raise DomainError("stability index must lie in (0, 3)")

    @cached_property
    def _beta(self) -> _BetaKernel:
        """B(x, 1 - lam) as a function of x."""
        return _BetaKernel(1.0 - self.lam)

    @cached_property
    def _beta0(self) -> float:
        """B(alpha, 1 - lam), the constant in the Laplace exponent."""
        return float(self._beta(np.array([self.alpha_b]))[0])


def beta_psi(params: BetaFamilyParams, s):
    """Laplace exponent of the beta-family at real s, a float or an array."""
    p = params
    s = np.asarray(s, dtype=float)
    v = s.ravel()
    out = p.mu_hat * v + 0.5 * p.sigma**2 * v**2
    if p.c != 0:
        out += (p.c / p.beta_b) * (p._beta(p.alpha_b + v / p.beta_b) - p._beta0)
    return out.item() if s.ndim == 0 else out.reshape(s.shape)


def beta_psi_derivative(params: BetaFamilyParams, s):
    """psi'(s) at real s, a float or an array, with
    dB(x, y)/dx = B(x, y) (psi0(x) - psi0(x + y)) in the beta term."""
    p = params
    s = np.asarray(s, dtype=float)
    v = s.ravel()
    out = p.mu_hat + p.sigma**2 * v
    if p.c != 0:
        out += (p.c / p.beta_b**2) * p._beta(p.alpha_b + v / p.beta_b, derivative=True)[1]
    return out.item() if s.ndim == 0 else out.reshape(s.shape)


def beta_poles(params: BetaFamilyParams, k):
    """eta_k = beta*(alpha + k - 1), the k-th pole magnitude (k >= 1, or an array)."""
    if np.any(np.asarray(k) < 1):
        raise DomainError("pole index starts at 1")
    return params.beta_b * (params.alpha_b + k - 1)


def mero_roots(params: BetaFamilyParams, q: float, m: int) -> Tuple[float, np.ndarray]:
    """(zeta_q, xi_{1..m+1}) with xi_k bracketed in (eta_{k-1}, eta_k)."""
    if m < 1:
        raise DomainError("m must be >= 1")
    return interlaced_solve(lambda s: beta_psi(params, s), q,
                            beta_poles(params, np.arange(1, m + 2)), None)


@dataclass(frozen=True, eq=False)
class TruncatedMero:
    """m-truncated system with the truncation gaps delta (W/Z) and epsilon
    (W' refinement).  ``sf`` is the m-term scale function with lead
    1/psi'(zeta) and value W(0) + delta at 0: the upper bound for W and Z and
    the lower bound for W'.  Its decomposition holds xi_1..xi_m and the poles
    eta_1..eta_m; ``xi`` adds xi_{m+1}, which the gaps need.  The ``wp0`` and
    ``theta`` of ``sf`` are those of the process (inf for sigma = 0 with
    infinite jump activity, where ``theta`` here is None)."""

    m: int
    xi: np.ndarray  # xi_1 .. xi_{m+1}
    delta: float
    theta: Optional[float]
    epsilon: Optional[float]
    sf: ScaleFunction


def _w_zero(params: BetaFamilyParams) -> float:
    """W^{(q)}(0) = W_{zeta}(0) from the small-scale behavior of the process."""
    if params.sigma > 0:
        return 0.0
    if params.lam >= 2:
        raise UnsupportedRegime(
            "sigma = 0 with stability index >= 2 (unbounded variation) unsupported"
        )
    if params.mu_hat <= 0:
        raise NegativeSubordinator("sigma = 0 requires positive drift")
    return 1.0 / params.mu_hat


def truncated_coefficients(params: BetaFamilyParams, q: float, m: int) -> TruncatedMero:
    """The m-term scale function from the first m roots and poles, through the
    closed-form pipeline, and the gaps delta_m, epsilon_m."""
    w0 = _w_zero(params)  # validates the sigma = 0 regime before root search
    zeta, xis = mero_roots(params, q, m)
    etas = beta_poles(params, np.arange(1, m + 1))
    if params.sigma > 0:
        theta: Optional[float] = 2.0 / params.sigma**2
        wp0 = theta
    elif params.lam < 1:
        # -zeta/mu + (q + jump mass)/mu^2 with the mass (c/beta) B(alpha, 1-lam),
        # rewritten through psi(zeta) = q so that nothing cancels
        b1 = float(params._beta(np.array([params.alpha_b + zeta / params.beta_b]))[0])
        theta = (params.c / params.beta_b) * b1 / params.mu_hat**2
        wp0 = theta + zeta / params.mu_hat
    else:
        theta, wp0 = None, math.inf  # infinite jump measure, sum A_i xi_i diverges
    decomp = RootDecomposition(q=q, zeta=zeta, xi=xis[:m], poles=etas,
                               case=CASE1 if params.sigma > 0 else CASE2)
    ppz = beta_psi_derivative(params, zeta)
    sf = assemble(decomp, w0=w0, wp0=wp0, theta=math.inf if theta is None else theta,
                  psi_prime_zeta=ppz, model=None)
    delta = 1.0 / ppz - w0 - float(sf.C.sum())
    return TruncatedMero(
        m=m,
        xi=xis,
        delta=delta,
        theta=theta,
        epsilon=None if theta is None else theta - (zeta / q) * sf.varrho,
        # assemble's lead is w0 + sum C; the bound takes the gap at 0 instead
        sf=replace(sf, w0=w0 + delta, lead=1.0 / ppz),
    )


def w_bounds(tm: TruncatedMero, x):
    """(lower, upper) sandwich of W^{(q)}(x) at x >= 0, floats for a float x;
    gap = delta_m (1 + e^{-xi_{m+1} x})."""
    xs = points(x, above=0.0)
    upper = tm.sf.w(xs)
    return like(x, upper - tm.delta * (1.0 + np.exp(-tm.xi[tm.m] * xs))), like(x, upper)


def z_bounds(tm: TruncatedMero, x):
    """(lower, upper) for Z^{(q)}(x), x >= 0, by exact integration of the W bounds."""
    xs = points(x, above=0.0)
    upper = tm.sf.z(xs)
    xm1 = tm.xi[tm.m]
    gap = tm.sf.q * tm.delta * (xs + (1.0 - np.exp(-xm1 * xs)) / xm1)
    return like(x, upper - gap), like(x, upper)


def w_prime_bounds(tm: TruncatedMero, x):
    """(lower, upper) for the derivative of the scale function at x > 0."""
    xs = points(x, above=0.0, strict=True)
    lower = tm.sf.w_prime(xs)
    # t e^{-t x} peaks at t = 1/x: over the sorted xi_1..xi_m the max sits next
    # to 1/x, and over the tail t >= xi_{m+1} it is 1/(e x) or the value at xi_{m+1}
    xi = tm.sf.xi
    near = xi[np.clip(np.searchsorted(xi, 1.0 / xs) + [[-1], [0]], 0, tm.m - 1)]
    head_sup = np.max(near * np.exp(-near * xs), axis=0)
    xm1 = tm.xi[tm.m]
    tail_sup = np.where(xm1 <= 1.0 / xs, 1.0 / (math.e * xs), xm1 * np.exp(-xm1 * xs))
    upper = lower + (head_sup + tail_sup) * tm.delta
    if tm.epsilon is not None:
        refined = lower + head_sup * tm.delta + np.exp(-xm1 * xs) * tm.epsilon
        upper = np.minimum(upper, refined)
    return like(x, lower), like(x, upper)


def cgmy_params(
    base: BetaFamilyParams, tilde_alpha: float, tilde_c: float, beta: float
) -> BetaFamilyParams:
    """Beta-family member approximating the tempered-stable target:
    c = c~ beta^lam, alpha = alpha~ / beta."""
    try:
        c = tilde_c * beta**base.lam
    except OverflowError:
        raise DomainError(f"c = c~ beta^lam overflows at beta = {beta}") from None
    return BetaFamilyParams(
        mu_hat=base.mu_hat,
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
    diagnostics (sup-norm differences of successive upper/lower curves)."""
    betas = list(betas)
    if not (all(b > 0 for b in betas) and all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))):
        raise DomainError("betas must be positive and strictly decreasing")
    grid = np.asarray(list(grid), dtype=float)
    curves = {}
    for beta in betas:
        tm = truncated_coefficients(cgmy_params(base, tilde_alpha, tilde_c, beta), q, m)
        lower, upper = w_bounds(tm, grid)
        curves[beta] = {"lower": lower, "upper": upper, "delta": tm.delta}
    sup = lambda b1, b2, key: float(np.max(np.abs(curves[b1][key] - curves[b2][key])))
    sup_diffs = [
        {"beta_pair": (b1, b2), "upper_sup_diff": sup(b1, b2, "upper"),
         "lower_sup_diff": sup(b1, b2, "lower")}
        for b1, b2 in zip(betas, betas[1:])
    ]
    return {"grid": grid, "curves": curves, "sup_diffs": sup_diffs}


# Benchmark beta-family scenario: infinite-activity, bounded-variation jumps
# with a small Gaussian part.
BETA_BENCHMARK = BetaFamilyParams(mu_hat=0.1, sigma=0.2, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
BETA_BENCHMARK_Q = 0.03
