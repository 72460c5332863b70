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
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .errors import BracketingFailure, RepeatedRootsDetected
from .models import SnLevyModel, like
from .roots import RootDecomposition, find_roots
from .wiener_hopf import _IMAG_TOL, exp_sum, partial_fraction_coefficients, points

if TYPE_CHECKING:
    from .meromorphic import BetaFamilyParams

_EXP_LOG_GUARD = 700.0


def _real(vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Real part of a sum over complex-conjugate root pairs, one row per point
    of xs; raises if an imaginary residue is more than rounding."""
    if not np.iscomplexobj(vals):
        return vals
    bad = np.abs(vals.imag) > _IMAG_TOL * (1.0 + np.abs(vals.real))
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        raise RepeatedRootsDetected(f"imaginary residue {vals.imag[k]} at x={xs[k[0]]}")
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
    own objects, and ``model`` is the model the roots came from.  ``A``,
    ``C`` are arrays aligned with ``xi`` (complex where the roots hold a
    conjugate pair): the residues A_i of phi_q_minus and
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
    model: SnLevyModel | BetaFamilyParams

    def decay_sum(self, xs: np.ndarray, weights, minus_one=0) -> np.ndarray:
        """sum_i weights_i e^{-xi_i x} on the grid xs, as reals, or
        sum_i weights_i (e^{-xi_i x} - 1) with ``minus_one``: ``exp_sum``,
        which takes a weight matrix for one column per weight vector."""
        return _real(exp_sum(self.xi, weights, xs, minus_one), xs)

    def _zx(self, xs: np.ndarray) -> np.ndarray:
        """zeta x at points xs >= 0, inf where the product leaves the float
        range: e^{zeta x} is then inf and e^{-zeta x} is 0."""
        with np.errstate(over="ignore"):
            return self.zeta * xs

    def _tilt(self, zx: np.ndarray, head: np.ndarray) -> np.ndarray:
        """W_zeta at zeta x = zx from head = sum_i C_i (e^{-xi_i x} - 1), as
        e^{-zeta x} (w0 - head) - lead (e^{-zeta x} - 1): this is
        lead - sum_i C_i e^{-(xi_i + zeta) x} as lead = w0 + sum C, with no
        difference of near terms as x -> 0 and no overflow."""
        return np.exp(-zx) * (self.w0 - head) - self.lead * np.expm1(-zx)

    def _w_tilted(self, xs: np.ndarray) -> np.ndarray:
        return self._tilt(self._zx(xs), self.decay_sum(xs, self.C, True))

    # -- evaluation ---------------------------------------------------------

    def w_tilted(self, x):
        """W_{zeta}(x) = e^{-zeta x} W(x); bounded and nondecreasing."""
        return like(x, self._w_tilted(points(x, above=0.0)))

    def w(self, x):
        """W(x); 0 on (-inf, 0)."""
        xs = points(x)
        pos = np.maximum(xs, 0.0)
        return like(x, np.where(xs < 0, 0.0, _envelope(self._zx(pos), self._w_tilted(pos))))

    def log_w(self, x):
        """log W(x), safe against overflow of the exponential envelope; at
        x = 0 it is log w0 exactly (-inf for sigma > 0)."""
        xs = points(x, above=0.0)
        at0 = xs == 0
        log_w0 = math.log(self.w0) if self.w0 > 0 else -math.inf
        tilted = np.where(at0, 1.0, self._w_tilted(xs))
        return like(x, np.where(at0, log_w0, self.zeta * xs + np.log(tilted)))

    def w_prime(self, x):
        """W'(x) for x > 0 (the x -> 0+ limit is ``wp0``): the W' of ``evaluate``."""
        points(x, above=0.0, strict=True)
        return self.evaluate(x)[1]

    def z(self, x):
        """Z(x) = 1 + q * integral of W over [0, x]; 1 on (-inf, 0]: the Z of ``evaluate``."""
        return self.evaluate(x)[2]

    def evaluate(self, x):
        """(W, W', Z) at a float or a 1-d array of points, read off one
        exponential tile of the sums sum_i C_i (e^{-xi_i x} - 1),
        sum_i (C_i/xi_i) (e^{-xi_i x} - 1) and sum_i C_i xi_i e^{-xi_i x}:
        W as ``w``, W' for x > 0 with its x -> 0+ limit ``wp0`` at 0 and 0
        below, and Z = 1 + q (lead (e^{zeta x} - 1)/zeta + the second sum),
        1 on (-inf, 0]."""
        xs = points(x)
        pos = np.maximum(xs, 0.0)
        weights = np.stack((self.C, self.C / self.xi, self.C * self.xi), axis=1)
        head_w, head_z, tail = self.decay_sum(pos, weights, 2).T
        zx = self._zx(pos)
        z = 1.0 + self.q * ((self.lead / self.zeta) * _envelope(zx, 1.0, np.expm1) + head_z)
        wp = _envelope(zx, self.zeta * self.lead + np.exp(-zx) * tail)
        wp = np.where(xs > 0, wp, np.where(xs == 0, self.wp0, 0.0))
        w = np.where(xs < 0, 0.0, _envelope(zx, self._tilt(zx, head_w)))
        return like(x, w), like(x, wp), like(x, np.where(xs <= 0, 1.0, z))

    def transform(self, s: np.ndarray) -> np.ndarray:
        """lead/(s - zeta) - sum_i C_i/(s + xi_i) on a 1-d array s, unchecked:
        the Laplace transform 1/(psi(s) - q) of W at s > zeta, continued."""
        return self.lead / (s - self.zeta) - (1.0 / np.add.outer(s, self.xi)) @ self.C

    def laplace_transform_w(self, s):
        """Analytic Laplace transform of W at s > zeta: ``transform``."""
        ss = points(s, above=self.zeta, strict=True)
        return like(s, _real(self.transform(ss), ss))

    # -- diagnostics --------------------------------------------------------

    def sum_c_residual(self) -> float:
        """Relative residual of sum(C) against 1/psi'(zeta) - w0."""
        target = 1.0 / self.psi_prime_zeta
        if not isinstance(self.model, SnLevyModel):
            # a beta-family truncation: w0 holds W(0) + delta_m, and delta_m =
            # 1/psi'(zeta) - W(0) - sum C, so sum C = lead - w0 by construction
            target -= self.w0
        elif self.w0 > 0:
            # 1/psi'(zeta) - 1/mu = lam E[Y e^{-zeta Y}] / (mu psi'(zeta)), with
            # w0 = 1/mu; the subtraction cancels when psi'(zeta) is near mu
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


def boundary_values(model: SnLevyModel | BetaFamilyParams, q: float,
                    zeta: float) -> Tuple[float, float, float]:
    """(W(0), W'(0+), theta) from the path variation of ``model``: (0,
    2/sigma^2, 2/sigma^2) for sigma > 0, else (1/mu, (q + mass)/mu^2,
    jump_transform(zeta)/mu^2) for the Levy mass ``levy_mass`` and
    jump_transform(zeta) = lam E[e^{-zeta Y}], with inf for an infinite mass,
    where the transform is not called.  theta = (q + mass - mu zeta)/mu^2
    through psi(zeta) = q, without its cancellation."""
    sigma, mu, mass = model.sigma, model.mu, model.levy_mass
    if sigma > 0:
        return 0.0, 2.0 / sigma**2, 2.0 / sigma**2
    if mass == math.inf:
        return 1.0 / mu, math.inf, math.inf
    return 1.0 / mu, (q + mass) / mu**2, model.jump_transform(zeta) / mu**2


def assemble(decomp: RootDecomposition, model: SnLevyModel | BetaFamilyParams,
             psi_prime_zeta: float) -> ScaleFunction:
    """Build the ScaleFunction of ``model`` from the simple roots of
    ``decomp``, the residues at them and the model's ``boundary_values``; a
    sum over conjugate pairs that is not real raises RepeatedRootsDetected.
    psi is convex with psi(0) = 0, so psi'(zeta) >= q/zeta > 0 at the root:
    any other psi'(zeta) (0 where the zeta solve lost psi to rounding at a
    tiny q) raises BracketingFailure."""
    zeta, xi = decomp.zeta, decomp.xi
    if not 0 < psi_prime_zeta < math.inf:
        raise BracketingFailure(f"psi'(zeta) = {psi_prime_zeta} at zeta = {zeta}; "
                                "zeta is no simple positive root")
    w0, wp0, theta = boundary_values(model, decomp.q, zeta)
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
    decomp = find_roots(model, q)
    return assemble(decomp, model, model.laplace_exponent_derivative(decomp.zeta))
