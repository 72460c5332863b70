"""Exit identities and overshoot/undershoot laws at the first down-crossing.

Two-sided exit works for any assembled scale function.  The joint
overshoot/undershoot closed forms require a diagonal jump generator
T = -diag(eta) (distinct real roots), reduced to its minimal rates however
the model file gives it.  The window laws are evaluated for all phases at
once as rates x roots arrays, and the undershoot density as the jump tail
times the resolvent density.  Infinite window endpoints are supported via
``math.inf`` with ``exp(-c * inf) = 0`` for c > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRegime
from .models import SnLevyModel, check_barriers, check_positive, like
from .scale import ScaleFunction
from .wiener_hopf import exp_sum, points


@dataclass(frozen=True)
class IntervalPair:
    """Overshoot window A = (-a_hi, -a_lo) and undershoot window B = (b_lo, b_hi)."""

    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float

    def __post_init__(self):
        for name, lo, hi in (("a", self.a_lo, self.a_hi), ("b", self.b_lo, self.b_hi)):
            if not 0 <= lo <= hi:
                raise DomainError(f"need 0 <= {name}_lo <= {name}_hi")


def up_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of reaching b before passing below 0: W(x)/W(b)."""
    check_barriers(x, b)
    # ratio via the tilted representation; never overflows
    return math.exp(sf.zeta * (x - b)) * sf.w_tilted(x) / sf.w_tilted(b)


def down_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of passing below 0 before reaching b,
    Z(x) - Z(b) W(x)/W(b).

    It is computed as the exact rearrangement D(x) - (W(x)/W(b)) D(b) with
    D = ``down_exit_unbounded``, which holds no e^{zeta x} term: the growth of
    Z(x) and of Z(b) W(x)/W(b) never meets in floating point.
    """
    check_barriers(x, b)
    return down_exit_unbounded(sf, x) - up_exit(sf, x, b) * down_exit_unbounded(sf, b)


def down_exit_unbounded(sf: ScaleFunction, x):
    """b -> infinity limit: Z(x) - (q/zeta) W(x), at a float or a 1-d array.

    This is the tail sum_i A_i e^{-xi_i x} of the running minimum at an
    Exp(q) time, read off the residues of phi_q_minus: no term grows like
    e^{zeta x}, and none cancels.
    """
    return like(x, sf.decay_sum(points(x, above=0.0), sf.A))


def _phases(sf: ScaleFunction, x: float):
    """(lam alpha, eta) of the real-pole record of a diagonal T for the laws from
    a start x > 0, empty without jumps; a model without such a record raises."""
    check_positive("x", x)
    rp = sf.model.real_poles
    if rp is None or rp.alpha is None:
        raise UnsupportedRegime("closed-form overshoot laws need a diagonal jump generator")
    return rp.lam * rp.alpha, rp.eta


def _kappa(sf: ScaleFunction, eta: np.ndarray, x: float, b_lo: float, b_hi: float) -> np.ndarray:
    """kappa_{j,q}(x; B) for every mixture rate eta_j at once, as one
    rates x roots expression summed over the roots."""
    zeta, xi = sf.zeta, sf.xi
    c = eta + zeta
    m_lo, m_hi = max(b_lo, x), max(b_hi, x)
    with np.errstate(over="ignore"):  # exponents past the float range are -inf
        # e^{zeta x} folded into the decays: -eta M - zeta (M - x) <= 0 for
        # M = max(b, x) >= x, and exp(-inf) = 0 covers an infinite window end
        out = (
            np.exp(-eta * m_lo - zeta * (m_lo - x)) - np.exp(-eta * m_hi - zeta * (m_hi - x))
        ) * (sf.lead / c)
        eta, c = eta[:, None], c[:, None]  # rates x roots from here on
        d = eta - xi
        bl, bh = min(b_lo, x), min(b_hi, x)
        # fold e^{-xi x} into the exponents: -xi(x - b) - eta b <= 0 for b <= x
        start = np.exp(-xi * (x - bl) - eta * bl)
        end = np.exp(-xi * (x - bh) - eta * bh)
        # (start - end) / d (no root is a rate), through expm1 where d (bh - bl) is small
        dw = d * (bh - bl)
        small = np.abs(dw) < 0.5
        ratio = -np.expm1(-np.where(small, dw, 0.0)) / d
        first = np.where(small, start * ratio, (start - end) / d)
        second = np.exp(-xi * x) * (np.exp(-c * b_lo) - np.exp(-c * b_hi)) / c
    return out + (first - second) @ sf.C


def joint_overshoot_undershoot(sf: ScaleFunction, x: float, pair: IntervalPair) -> float:
    """Discounted joint law of (undershoot in B, overshoot magnitude window A)."""
    lam_alpha, eta = _phases(sf, x)
    window = np.exp(-eta * pair.a_lo) - np.exp(-eta * pair.a_hi)
    return float(lam_alpha * window @ _kappa(sf, eta, x, pair.b_lo, pair.b_hi))


def overshoot_density(sf: ScaleFunction, x: float, a):
    """Density in the overshoot magnitude a > 0 (undershoot unrestricted), at
    a float or a 1-d array of magnitudes."""
    a_s = points(a, above=0.0, strict=True)
    lam_alpha, eta = _phases(sf, x)
    kappa = _kappa(sf, eta, x, 0.0, math.inf)
    return like(a, exp_sum(eta, lam_alpha * eta * kappa, a_s))


def undershoot_density(sf: ScaleFunction, x: float, b):
    """Density in the undershoot position b > 0 (overshoot unrestricted), at a
    float or a 1-d array of positions: the jump tail sum_j lam alpha_j
    e^{-eta_j b} times the resolvent density r(x, b) = e^{-zeta b} W(x) - W(x - b).

    Below x, r = -sum_i C_i e^{-xi_i (x - b)} expm1(-(xi_i + zeta) b), with no
    difference of near terms as b -> 0; from x on, r = e^{zeta (x - b)} W_zeta(x).
    r jumps by W(0) = 1/mu at b = x for the compound Poisson case and is
    continuous when sigma > 0.
    """
    bs = points(b, above=0.0, strict=True)
    lam_alpha, eta = _phases(sf, x)
    xi = sf.xi
    lo = np.minimum(bs, x)[:, None]  # positions x roots
    with np.errstate(over="ignore"):  # e^{-xi (x - b)} = 0 past the float range
        below = -(np.exp(-xi * (x - lo)) * np.expm1(-(xi + sf.zeta) * lo)) @ sf.C
    above = np.exp(sf.zeta * (x - np.maximum(bs, x))) * sf.w_tilted(x)
    return like(b, exp_sum(eta, lam_alpha, bs) * np.where(bs < x, below, above))


def conjecture_residuals(sf: ScaleFunction) -> list:
    """Per pole s = -eta_j of psi, the transform of W (``transform``), which
    is 1/(psi(s) - q) and so vanishes there, relative to its term
    lead/(s - zeta): for every jump generator, at complex poles too, and
    empty without jumps.  A model other than a phase-type one raises
    UnsupportedRegime: a beta-family truncation sums m of the infinitely
    many terms of W, so its transform does not vanish at the poles."""
    if not isinstance(sf.model, SnLevyModel):
        raise UnsupportedRegime("the transform at the poles of psi needs the model's poles")
    eta = sf.model.phase_type.poles
    scale = np.maximum(np.abs(sf.lead / (eta + sf.zeta)), 1e-300)
    return (np.abs(sf.transform(-eta)) / scale).tolist()
