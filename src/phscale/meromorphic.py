"""Scale-function bounds for the meromorphic beta-family.

The Laplace exponent is ``psi(z) = mu_hat*z + sigma^2 z^2/2
+ (c/beta) { B(alpha + z/beta, 1-lam) - B(alpha, 1-lam) }`` with beta function
B.  Its poles sit at -eta_k with eta_k = beta*(alpha + k - 1), the negative
roots of psi(s) = q interlace them, and the scale function is a countable
exponential sum which we sandwich between finite-sum bounds with an explicit
truncation gap.
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


def _beta_fn(x, y):
    """B(x, y) elementwise for real non-pole arguments."""
    from scipy.special import gammaln, gammasgn  # SciPy loads on first use only

    for arg in (np.asarray(x), np.asarray(y)):
        on_pole = (arg <= 0) & (np.abs(arg - np.rint(arg)) < _POLE_TOL * (1.0 + np.abs(arg)))
        if on_pole.any():
            raise PoleEvaluation(f"gamma pole at {float(arg[on_pole].flat[0])}")
    lg_xy = gammaln(x + y)  # +inf at the poles of Gamma(x + y), where B = 0
    sign = gammasgn(x) * gammasgn(y) * gammasgn(x + y)
    return np.where(np.isinf(lg_xy), 0.0, sign * np.exp(gammaln(x) + gammaln(y) - lg_xy))


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
    def _beta0(self) -> float:
        """B(alpha, 1 - lam), the constant in the Laplace exponent."""
        return float(_beta_fn(self.alpha_b, 1.0 - self.lam))


def beta_psi(params: BetaFamilyParams, s):
    """Laplace exponent of the beta-family at real s, a float or an array."""
    p = params
    s = np.asarray(s, dtype=float)
    out = p.mu_hat * s + 0.5 * p.sigma**2 * s**2
    if p.c != 0:
        b1 = _beta_fn(p.alpha_b + s / p.beta_b, 1.0 - p.lam)
        out = out + (p.c / p.beta_b) * (b1 - p._beta0)
    return float(out) if out.ndim == 0 else out


def beta_psi_derivative(params: BetaFamilyParams, s: float) -> float:
    """psi'(s) via digamma differentiation of the beta term."""
    p = params
    base = p.mu_hat + p.sigma**2 * s
    if p.c == 0:
        return base
    from scipy.special import digamma

    x = p.alpha_b + s / p.beta_b
    y = 1.0 - p.lam
    b1 = _beta_fn(x, y)
    return base + (p.c / p.beta_b**2) * b1 * (digamma(x) - digamma(x + y))


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
        b1 = float(_beta_fn(params.alpha_b + zeta / params.beta_b, 1.0 - params.lam))
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


def _grid(x) -> np.ndarray:
    xs = points(x)
    if not np.all(xs >= 0):
        raise DomainError("x must be >= 0")
    return xs


def _pair(x, lower: np.ndarray, upper: np.ndarray):
    """The bounds at x >= 0 (x > 0 for W'): floats for a float x, arrays for a grid."""
    return like(x, lower), like(x, upper)


def w_bounds(tm: TruncatedMero, x):
    """(lower, upper) sandwich of W^{(q)}(x); gap = delta_m (1 + e^{-xi_{m+1} x})."""
    xs = _grid(x)
    upper = tm.sf.w(xs)
    return _pair(x, upper - tm.delta * (1.0 + np.exp(-tm.xi[tm.m] * xs)), upper)


def z_bounds(tm: TruncatedMero, x):
    """(lower, upper) for Z^{(q)}(x) by exact integration of the W bounds."""
    xs = _grid(x)
    upper = tm.sf.z(xs)
    xm1 = tm.xi[tm.m]
    gap = tm.sf.q * tm.delta * (xs + (1.0 - np.exp(-xm1 * xs)) / xm1)
    return _pair(x, upper - gap, upper)


def w_prime_bounds(tm: TruncatedMero, x):
    """(lower, upper) for the derivative of the scale function at x > 0."""
    xs = points(x)
    lower = tm.sf.w_prime(xs)  # raises unless every x > 0
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
    return _pair(x, lower, upper)


def cgmy_params(
    base: BetaFamilyParams, tilde_alpha: float, tilde_c: float, beta: float
) -> BetaFamilyParams:
    """Beta-family member approximating the tempered-stable target:
    c = c~ beta^lam, alpha = alpha~ / beta."""
    return BetaFamilyParams(
        mu_hat=base.mu_hat,
        sigma=base.sigma,
        alpha_b=tilde_alpha / beta,
        beta_b=beta,
        c=tilde_c * beta**base.lam,
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
