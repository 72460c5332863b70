"""Exit identities and overshoot/undershoot laws at the first down-crossing.

Two-sided exit works for any assembled scale function.  The joint
overshoot/undershoot closed forms require hyperexponential jumps (distinct
real roots); infinite window endpoints are supported via ``math.inf`` with
``exp(-c * inf) = 0`` for c > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExponentAtPole, UnsupportedRegime
from .models import HyperExpDist
from .scale import ScaleFunction

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


def _edecay(c: float, x: float) -> float:
    """exp(-c * x) with the convention exp(-c * inf) = 0 for c > 0."""
    if math.isinf(x):
        if c > 0:
            return 0.0
        raise ExponentAtPole("exp(-c*inf) with c <= 0")
    return math.exp(-c * x)


def up_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of reaching b before passing below 0: W(x)/W(b)."""
    if b <= 0 or not (0 <= x <= b):
        raise DomainError("need 0 <= x <= b, b > 0")
    # ratio via the tilted representation; never overflows
    return math.exp(sf.zeta * (x - b)) * sf.w_tilted(x) / sf.w_tilted(b)


def down_exit(sf: ScaleFunction, x: float, b: float) -> float:
    """Discounted probability of passing below 0 before reaching b."""
    if b <= 0 or not (0 <= x <= b):
        raise DomainError("need 0 <= x <= b, b > 0")
    return sf.z(x) - sf.z(b) * up_exit(sf, x, b)


def down_exit_unbounded(sf: ScaleFunction, x: float) -> float:
    """b -> infinity limit: Z(x) - (q/zeta) W(x).

    The e^{zeta x} parts of Z and (q/zeta) W cancel exactly, so the value is
    computed from the decaying remainder R(x) = W(x) - e^{zeta x}/psi'(zeta):

        1 - (q/zeta)/psi'(zeta) + q * int_0^x R - (q/zeta) R(x),

    which stays accurate when zeta*x is large (the naive difference loses all
    precision there).
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    q, zeta = sf.q, sf.zeta
    rest = _decaying_part(sf)
    val = (
        1.0
        - (q / zeta) * sf.lead
        + q * complex(rest.integral0(x)).real
        - (q / zeta) * rest.eval_real(x)
    )
    return val


def _decaying_part(sf: ScaleFunction):
    """ExpPolySum of W minus its leading e^{zeta x} term."""
    from .scale import ExpPolySum

    return ExpPolySum(
        [(r, c) for r, c in sf._untilted.terms if r != -sf.zeta]
    )


def _require_hyperexp(sf: ScaleFunction) -> HyperExpDist:
    model = sf.model
    if model is None or not isinstance(model.jumps, HyperExpDist):
        raise UnsupportedRegime("closed-form overshoot laws need hyperexponential jumps")
    if sf.C is None:
        raise UnsupportedRegime("distinct real roots required")
    return model.jumps


def _kappa(sf: ScaleFunction, j: int, x: float, b_lo: float, b_hi: float) -> float:
    """kappa_{j,q}(x; B) for one mixture component."""
    jumps = _require_hyperexp(sf)
    eta_j = jumps.eta[j]
    zeta = sf.zeta
    c = eta_j + zeta
    # e^{zeta x} folded into the decays: each exponent is <= -eta_j x, and
    # exp(-inf) = 0 covers an infinite window end
    out = (
        math.exp(zeta * x - c * max(b_lo, x)) - math.exp(zeta * x - c * max(b_hi, x))
    ) / (sf.psi_prime_zeta * c)
    for (xi, _, _), C in zip(sf.terms, sf.C):
        xi = float(np.real(xi))
        d = eta_j - xi
        bl, bh = min(b_lo, x), min(b_hi, x)
        # fold e^{-xi x} into the exponents: -xi(x - b) - eta b <= 0 for b <= x
        if d == 0.0 or abs(d * (bh - bl)) < 0.5:
            first = math.exp(-xi * (x - bl) - eta_j * bl) * (
                bh - bl if d == 0.0 else -math.expm1(-d * (bh - bl)) / d
            )
        else:
            first = (
                math.exp(-xi * (x - bl) - eta_j * bl)
                - math.exp(-xi * (x - bh) - eta_j * bh)
            ) / d
        second = math.exp(-xi * x) * (_edecay(c, b_lo) - _edecay(c, b_hi)) / c
        out += C * (first - second)
    return out


def joint_overshoot_undershoot(sf: ScaleFunction, x: float, pair: IntervalPair) -> float:
    """Discounted joint law of (undershoot in B, overshoot magnitude window A)."""
    if x <= 0:
        raise DomainError("x must be > 0")
    jumps = _require_hyperexp(sf)
    lam = sf.model.lam
    total = 0.0
    for j, (pj, ej) in enumerate(zip(jumps.p, jumps.eta)):
        window = _edecay(ej, pair.a_lo) - _edecay(ej, pair.a_hi)
        if window != 0.0:
            total += lam * pj * window * _kappa(sf, j, x, pair.b_lo, pair.b_hi)
    return total


def overshoot_density(sf: ScaleFunction, x: float, a: float) -> float:
    """Density in the overshoot magnitude a > 0 (undershoot unrestricted)."""
    if a <= 0 or x <= 0:
        raise DomainError("need a > 0 and x > 0")
    jumps = _require_hyperexp(sf)
    lam = sf.model.lam
    total = 0.0
    for j, (pj, ej) in enumerate(zip(jumps.p, jumps.eta)):
        total += lam * pj * ej * math.exp(-ej * a) * _kappa(sf, j, x, 0.0, math.inf)
    return total


def undershoot_density(sf: ScaleFunction, x: float, b: float) -> float:
    """Density in the undershoot position b > 0 (overshoot unrestricted).

    Two-branch closed form; discontinuous at b = x for the compound Poisson
    case, continuous when sigma > 0.
    """
    if b <= 0 or x <= 0:
        raise DomainError("need b > 0 and x > 0")
    jumps = _require_hyperexp(sf)
    lam = sf.model.lam
    zeta = sf.zeta
    ppz = sf.psi_prime_zeta
    xis = [float(np.real(xi)) for xi, _, _ in sf.terms]
    total = 0.0
    for pj, ej in zip(jumps.p, jumps.eta):
        if b < x:
            acc = 0.0
            for xi, C in zip(xis, sf.C):
                acc += C * (
                    math.exp(-xi * (x - b) - ej * b)
                    - math.exp(-xi * x - (ej + zeta) * b)
                )
        else:
            acc = math.exp(zeta * x - (ej + zeta) * b) / ppz
            for xi, C in zip(xis, sf.C):
                acc -= C * math.exp(-(xi * x + (ej + zeta) * b))
        total += lam * pj * acc
    return total


def conjecture_residuals(sf: ScaleFunction) -> list:
    """Per-rate residual of the conjectured identity
    1/(psi'(zeta)(eta_j+zeta)) = sum_i C_i/(eta_j - xi_i); informational only."""
    jumps = _require_hyperexp(sf)
    zeta = sf.zeta
    out = []
    xis = [float(np.real(xi)) for xi, _, _ in sf.terms]
    for ej in jumps.eta:
        lhs = 1.0 / (sf.psi_prime_zeta * (ej + zeta))
        rhs = sum(C / (ej - xi) for xi, C in zip(xis, sf.C))
        out.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return out
