"""Closed-form scale functions assembled from the roots of psi(s) = q.

With simple roots and the residues A_i of the Wiener-Hopf factor at them,
the q-scale function is the exponential sum

    W(x) = lead e^{zeta x} - sum_i C_i e^{-xi_i x},   x >= 0,

so W', Z and the Laplace transform of W are closed forms in the same arrays:
no numerical differentiation or quadrature appears in the public path.  Each
evaluator takes a float and returns a float, or takes a 1-d array of points
and returns an array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketingFailure, DomainError, RepeatedRootsDetected
from .models import CASE1, CASE2, SnLevyModel
from .roots import RootDecomposition, find_roots
from .wiener_hopf import _IMAG_TOL, exp_sum, like, partial_fraction_coefficients, points

_EXP_LOG_GUARD = 700.0


def _real(vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Real part of a sum over complex-conjugate root pairs; raises if an
    imaginary residue is more than rounding."""
    if not np.iscomplexobj(vals):
        return vals
    bad = np.abs(vals.imag) > _IMAG_TOL * (1.0 + np.abs(vals.real))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise RepeatedRootsDetected(f"imaginary residue {vals.imag[k]} at x={xs[k]}")
    return vals.real


def _envelope(zx: np.ndarray, vals, expfn=np.exp) -> np.ndarray:
    """expfn(zeta x) * vals, inf only where the product itself exceeds the
    float range: the growth past the guard multiplies the guarded value."""
    head = np.minimum(zx, _EXP_LOG_GUARD)
    with np.errstate(over="ignore"):
        return expfn(head) * vals * np.exp(zx - head)


@dataclass(frozen=True, eq=False)
class ScaleFunction:
    """Assembled q-scale function of one model.

    ``decomp`` holds the roots and poles; ``q``, ``zeta`` and ``xi`` are its
    own objects.  ``A``, ``C`` are arrays aligned with ``xi`` (complex where
    the roots hold a conjugate pair): the residues A_i of phi_q_minus and
    C_i = (zeta/q) A_i xi_i/(zeta + xi_i).  ``varrho`` = sum_i A_i xi_i, and
    ``lead`` = w0 + sum C is the coefficient of e^{zeta x}, which coincides
    with 1/psi'(zeta) up to rounding.
    """

    q: float
    zeta: float
    psi_prime_zeta: float
    w0: float
    wp0: float
    theta: float
    lead: float
    xi: np.ndarray
    A: np.ndarray
    C: np.ndarray
    varrho: float
    decomp: RootDecomposition
    model: Optional[SnLevyModel]

    def decay_sum(self, xs: np.ndarray, weights, shift: float = 0.0, expfn=np.exp) -> np.ndarray:
        """sum_i weights_i expfn(-(xi_i + shift) x) on the grid xs, as reals."""
        return _real(exp_sum(self.xi + shift, weights, xs, expfn), xs)

    def _w_tilted(self, xs: np.ndarray) -> np.ndarray:
        """e^{-zeta x} (w0 - sum_i C_i (e^{-xi_i x} - 1)) - lead (e^{-zeta x} - 1),
        which is lead - sum_i C_i e^{-(xi_i + zeta) x} as lead = w0 + sum C,
        with no difference of near terms as x -> 0 and no overflow."""
        head = self.w0 - self.decay_sum(xs, self.C, expfn=np.expm1)
        return np.exp(-self.zeta * xs) * head - self.lead * np.expm1(-self.zeta * xs)

    # -- evaluation ---------------------------------------------------------

    def w_tilted(self, x):
        """W_{zeta}(x) = e^{-zeta x} W(x); bounded and nondecreasing."""
        return like(x, self._w_tilted(points(x, above=0.0)))

    def w(self, x):
        """W(x); 0 on (-inf, 0)."""
        xs = points(x)
        pos = np.maximum(xs, 0.0)
        return like(x, np.where(xs < 0, 0.0, _envelope(self.zeta * pos, self._w_tilted(pos))))

    def log_w(self, x):
        """log W(x), safe against overflow of the exponential envelope; at
        x = 0 it is log w0 exactly (-inf for sigma > 0)."""
        xs = points(x, above=0.0)
        at0 = xs == 0
        log_w0 = math.log(self.w0) if self.w0 > 0 else -math.inf
        tilted = np.where(at0, 1.0, self._w_tilted(xs))
        return like(x, np.where(at0, log_w0, self.zeta * xs + np.log(tilted)))

    def w_prime(self, x):
        """W'(x) for x > 0 (the x -> 0+ limit is ``wp0``)."""
        xs = points(x, above=0.0, strict=True)
        slope = self.zeta * self.lead + self.decay_sum(xs, self.C * self.xi, self.zeta)
        return like(x, _envelope(self.zeta * xs, slope))

    def z(self, x):
        """Z(x) = 1 + q * integral of W over [0, x]; 1 on (-inf, 0]."""
        xs = points(x)
        pos = np.maximum(xs, 0.0)
        grow = (self.lead / self.zeta) * _envelope(self.zeta * pos, 1.0, np.expm1)
        vals = 1.0 + self.q * (grow + self.decay_sum(pos, self.C / self.xi, expfn=np.expm1))
        return like(x, np.where(xs <= 0, 1.0, vals))

    def laplace_transform_w(self, s):
        """Analytic Laplace transform of W at s > zeta."""
        ss = points(s, above=self.zeta, strict=True)
        vals = self.lead / (ss - self.zeta) - (1.0 / np.add.outer(ss, self.xi)) @ self.C
        return like(s, _real(vals, ss))

    # -- diagnostics --------------------------------------------------------

    def sum_c_residual(self) -> float:
        """Relative residual of sum(C) against 1/psi'(zeta) (case 2: minus 1/mu)."""
        target = 1.0 / self.psi_prime_zeta
        if self.decomp.case == CASE2:
            # 1/psi'(zeta) - 1/mu = lam E[Y e^{-zeta Y}] / (mu psi'(zeta)), with
            # w0 = 1/mu; the subtraction cancels when psi'(zeta) is near mu
            if self.model is None:
                target -= self.w0
            else:
                target *= self.model.jump_tilted_mean(self.zeta) * self.w0
        return float(abs(self.C.sum().real - target) / max(abs(target), 1e-300))


def boundary_identities(sf: ScaleFunction) -> dict:
    """Relative residuals of the positive-root identity zeta/q = theta/varrho,
    compared as zeta varrho = q theta (both 0 for a pure drift), and of the
    coefficient-sum identity."""
    lhs = sf.zeta * sf.varrho
    return {
        "zeta_identity_rel_err": abs(lhs - sf.q * sf.theta) / max(abs(lhs), 1e-300),
        "sum_c_rel_err": sf.sum_c_residual(),
    }


def assemble(
    decomp: RootDecomposition,
    *,
    w0: float,
    wp0: float,
    theta: float,
    psi_prime_zeta: float,
    model: Optional[SnLevyModel],
) -> ScaleFunction:
    """Build a ScaleFunction from simple roots and the residues at them; a
    sum over conjugate pairs that is not real raises RepeatedRootsDetected.
    psi is convex with psi(0) = 0, so psi'(zeta) >= q/zeta > 0 at the root:
    any other psi'(zeta) (0 where the zeta solve lost psi to rounding at a
    tiny q) raises BracketingFailure."""
    zeta, xi = decomp.zeta, decomp.xi
    if not 0 < psi_prime_zeta < math.inf:
        raise BracketingFailure(f"psi'(zeta) = {psi_prime_zeta} at zeta = {zeta}; "
                                "zeta is no simple positive root")
    A = partial_fraction_coefficients(decomp)
    C = (zeta / decomp.q) * A * (xi / (zeta + xi))
    varrho, lead = complex(A @ xi), complex(w0 + C.sum())
    if abs(varrho.imag) > _IMAG_TOL * (1.0 + abs(varrho.real)):
        raise RepeatedRootsDetected(f"varrho has imaginary part {varrho.imag}")
    if abs(lead.imag) > _IMAG_TOL * (1.0 + abs(lead.real)):
        raise RepeatedRootsDetected("leading coefficient not real")
    return ScaleFunction(
        q=decomp.q,
        zeta=zeta,
        psi_prime_zeta=psi_prime_zeta,
        w0=w0,
        wp0=wp0,
        theta=theta,
        lead=lead.real,
        xi=xi,
        A=A,
        C=C,
        varrho=varrho.real,
        decomp=decomp,
        model=model,
    )


def build_scale(model: SnLevyModel, q: float) -> ScaleFunction:
    """Full pipeline: roots -> partial fractions -> assembled scale function."""
    if not 0 < q < math.inf:
        raise DomainError("q must be > 0 and finite")
    decomp = find_roots(model, q)
    zeta = decomp.zeta
    if model.case == CASE1:
        w0 = 0.0
        wp0 = 2.0 / model.sigma**2
        theta = 2.0 / model.sigma**2
    else:
        w0 = 1.0 / model.mu
        wp0 = (q + model.levy_mass) / model.mu**2
        # (q + levy_mass - mu zeta)/mu^2, rewritten through psi(zeta) = q so
        # that nothing cancels when theta is far below zeta/mu
        theta = model.jump_transform(zeta) / model.mu**2
    return assemble(
        decomp,
        w0=w0,
        wp0=wp0,
        theta=theta,
        psi_prime_zeta=model.laplace_exponent_derivative(zeta),
        model=model,
    )
