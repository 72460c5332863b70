"""Exit identities and overshoot/undershoot laws at the first down-crossing.

Two-sided exit works for any assembled scale function.  The joint
overshoot/undershoot closed forms require a diagonal jump generator
T = -diag(eta) (distinct real roots), reduced to its minimal rates however
the model file gives it; they are evaluated for all phases at once as
rates x roots arrays.  Infinite window endpoints are supported via
``math.inf`` with ``exp(-c * inf) = 0`` for c > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRegime
from .scale import ScaleFunction
from .wiener_hopf import exp_sum, like, points


@dataclass(frozen=True)
class IntervalPair:
    """Overshoot window A = (-a_hi, -a_lo) and undershoot window B = (b_lo, b_hi)."""

    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float

    def __post_init__(self):
        if not (0 <= self.a_lo <= self.a_hi):
            raise DomainError("need 0 <= a_lo <= a_hi")
        if not (0 <= self.b_lo <= self.b_hi):
            raise DomainError("need 0 <= b_lo <= b_hi")


def up_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of reaching b before passing below 0: W(x)/W(b)."""
    if b <= 0 or not (0 <= x <= b and x < math.inf):
        raise DomainError("need 0 <= x <= b, b > 0, x finite")
    # ratio via the tilted representation; never overflows
    return math.exp(sf.zeta * (x - b)) * sf.w_tilted(x) / sf.w_tilted(b)


def down_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of passing below 0 before reaching b,
    Z(x) - Z(b) W(x)/W(b).

    It is computed as the exact rearrangement D(x) - (W(x)/W(b)) D(b) with
    D = ``down_exit_unbounded``: the e^{zeta x} growth of Z(x) and of
    Z(b) W(x)/W(b) cancels inside D, not in floating point.
    """
    if b <= 0 or not (0 <= x <= b and x < math.inf):
        raise DomainError("need 0 <= x <= b, b > 0, x finite")
    return down_exit_unbounded(sf, x) - up_exit(sf, x, b) * down_exit_unbounded(sf, b)


def down_exit_unbounded(sf: ScaleFunction, x):
    """b -> infinity limit: Z(x) - (q/zeta) W(x), at a float or a 1-d array.

    The e^{zeta x} parts of Z and (q/zeta) W cancel exactly, so the value is
    computed from the decaying remainder R(x) = -sum_i C_i e^{-xi_i x} of W:

        1 - (q/zeta) lead + q * int_0^x R - (q/zeta) R(x),

    which stays accurate when zeta*x is large (the naive difference loses all
    precision there).
    """
    xs = points(x)
    if not np.all(xs >= 0):
        raise DomainError("x must be >= 0")
    q, zeta = sf.q, sf.zeta
    vals = (
        1.0
        - (q / zeta) * sf.lead
        + q * sf.decay_sum(xs, sf.C / sf.xi, expfn=np.expm1)
        + (q / zeta) * sf.decay_sum(xs, sf.C)
    )
    return like(x, vals)


def _phases(sf: ScaleFunction):
    """(lam alpha, eta) of a diagonal jump generator T = -diag(eta): the
    minimal weights and rates, which give interlaced, hence real, roots."""
    model = sf.model
    if model is None or not model.phase_type.diagonal:
        raise UnsupportedRegime("closed-form overshoot laws need a diagonal jump generator")
    return model.lam * model.phase_type.alpha, model.phase_type.poles


def _kappa(sf: ScaleFunction, eta: np.ndarray, x: float, b_lo: float, b_hi: float) -> np.ndarray:
    """kappa_{j,q}(x; B) for every mixture rate eta_j at once, as one
    rates x roots expression summed over the roots."""
    zeta, xi = sf.zeta, sf.xi
    c = eta + zeta
    # e^{zeta x} folded into the decays: each exponent is <= -eta_j x, and
    # exp(-inf) = 0 covers an infinite window end
    out = (
        np.exp(zeta * x - c * max(b_lo, x)) - np.exp(zeta * x - c * max(b_hi, x))
    ) / (sf.psi_prime_zeta * c)
    eta, c = eta[:, None], c[:, None]  # rates x roots from here on
    d = eta - xi
    bl, bh = min(b_lo, x), min(b_hi, x)
    # fold e^{-xi x} into the exponents: -xi(x - b) - eta b <= 0 for b <= x
    start = np.exp(-xi * (x - bl) - eta * bl)
    end = np.exp(-xi * (x - bh) - eta * bh)
    # (start - end) / d, through expm1 where d (bh - bl) is small (or d = 0)
    dw = d * (bh - bl)
    small = np.abs(dw) < 0.5
    d1 = np.where(d == 0.0, 1.0, d)
    ratio = np.where(d == 0.0, bh - bl, -np.expm1(-np.where(small, dw, 0.0)) / d1)
    first = np.where(small, start * ratio, (start - end) / d1)
    second = np.exp(-xi * x) * (np.exp(-c * b_lo) - np.exp(-c * b_hi)) / c
    return out + (first - second) @ sf.C


def joint_overshoot_undershoot(sf: ScaleFunction, x: float, pair: IntervalPair) -> float:
    """Discounted joint law of (undershoot in B, overshoot magnitude window A)."""
    if not 0 < x < math.inf:
        raise DomainError("x must be > 0 and finite")
    lam_alpha, eta = _phases(sf)
    window = np.exp(-eta * pair.a_lo) - np.exp(-eta * pair.a_hi)
    return float(lam_alpha * window @ _kappa(sf, eta, x, pair.b_lo, pair.b_hi))


def overshoot_density(sf: ScaleFunction, x: float, a):
    """Density in the overshoot magnitude a > 0 (undershoot unrestricted), at
    a float or a 1-d array of magnitudes."""
    a_s = points(a)
    if not (0 < x < math.inf and np.all(a_s > 0)):
        raise DomainError("need a > 0 and 0 < x < inf")
    lam_alpha, eta = _phases(sf)
    kappa = _kappa(sf, eta, x, 0.0, math.inf)
    return like(a, exp_sum(eta, lam_alpha * eta * kappa, a_s))


def undershoot_density(sf: ScaleFunction, x: float, b):
    """Density in the undershoot position b > 0 (overshoot unrestricted), at a
    float or a 1-d array of positions.

    Two-branch closed form; discontinuous at b = x for the compound Poisson
    case, continuous when sigma > 0.
    """
    bs = points(b)
    if not (0 < x < math.inf and np.all(bs > 0)):
        raise DomainError("need b > 0 and 0 < x < inf")
    lam_alpha, eta = _phases(sf)
    zeta, xi, C = sf.zeta, sf.xi, sf.C
    eta = eta[:, None]  # (rates, 1) against the roots
    c = eta + zeta
    # each branch at its own side of x, so that neither overflows:
    # positions x (rates) x roots for b < x, positions x rates for b >= x
    lo = np.minimum(bs, x)[:, None, None]
    hi = np.maximum(bs, x)[:, None]
    below = (np.exp(-xi * (x - lo) - eta * lo) - np.exp(-xi * x - c * lo)) @ C
    above = (np.exp(zeta * x - c[:, 0] * hi) / sf.psi_prime_zeta
             - np.exp(-(xi * x + c * hi[..., None])) @ C)
    return like(b, np.where(bs < x, below @ lam_alpha, above @ lam_alpha))


def conjecture_residuals(sf: ScaleFunction) -> list:
    """Per-rate residual of the conjectured identity
    1/(psi'(zeta)(eta_j+zeta)) = sum_i C_i/(eta_j - xi_i); informational only."""
    eta = _phases(sf)[1]
    lhs = 1.0 / (sf.psi_prime_zeta * (eta + sf.zeta))
    rhs = (1.0 / np.subtract.outer(eta, sf.xi)) @ sf.C
    return (np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)).tolist()
