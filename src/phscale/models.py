"""Spectrally negative Levy models with phase-type or hyperexponential jumps.

A model is ``X_t - X_0 = mu*t + sigma*B_t - sum_{n<=N_t} Z_n`` with ``N`` a
Poisson process of rate ``lam`` and ``Z`` i.i.d. positive jumps.  Only two
regimes are admitted: ``sigma > 0`` (case 1, unbounded variation) and
``sigma = 0, mu > 0`` (case 2, compound Poisson drifting up between jumps).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DomainError,
    NegativeSubordinator,
    NonIncreasingRates,
    PoleEvaluation,
    SimplexViolation,
    SingularGenerator,
)

CASE1 = "case1"  # sigma > 0
CASE2 = "case2"  # sigma = 0, mu > 0

# Loose enough to admit published fitted parameter tables that sum to 1 only
# to ~6 decimal places.
_SIMPLEX_TOL = 1e-5
_POLE_REL_TOL = 1e-12  # relative guard around poles of psi


@dataclass(frozen=True)
class HyperExpDist:
    """Hyperexponential jump distribution: density sum_j p_j eta_j exp(-eta_j z)."""

    p: tuple
    eta: tuple

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if p.ndim != 1 or p.shape != eta.shape or p.size == 0:
            raise SimplexViolation("weights and rates must be equal-length vectors")
        if not (np.all(p > 0) and abs(p.sum() - 1.0) <= _SIMPLEX_TOL):
            raise SimplexViolation(f"weights must be positive and sum to 1, got sum={p.sum()!r}")
        if not (np.all(np.isfinite(eta)) and eta[0] > 0 and np.all(np.diff(eta) > 0)):
            raise NonIncreasingRates("rates must satisfy 0 < eta_1 < ... < eta_m < inf")
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "eta", tuple(eta))

    def phase_type_arrays(self) -> "PhaseTypeArrays":
        """alpha = p, T = -diag(eta), t = eta and the poles eta."""
        return _diagonal_arrays(self.p, self.eta)


@dataclass(frozen=True)
class PhaseTypeRepr:
    """Phase-type distribution (m, alpha, T); exit rates t = -T @ 1."""

    alpha: tuple
    T: tuple

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        T = np.asarray(self.T, dtype=float)
        m = alpha.size
        if T.shape != (m, m) or m == 0:
            raise SingularGenerator("T must be m x m matching alpha")
        if not (np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= _SIMPLEX_TOL):
            raise SimplexViolation("alpha must be a probability simplex")
        if not (np.all(np.isfinite(T)) and np.all(np.diag(T) < 0)):
            raise SingularGenerator("T must be finite with a strictly negative diagonal")
        off = T - np.diag(np.diag(T))
        if np.any(off < -1e-12):
            raise SingularGenerator("off-diagonal entries of T must be nonnegative")
        t = -T.sum(axis=1)
        if np.any(t < -1e-9):
            raise SingularGenerator("row sums of [T | t] must vanish with t >= 0")
        if abs(np.linalg.det(T)) < 1e-300:
            raise SingularGenerator("PH generator is singular")
        object.__setattr__(self, "alpha", tuple(alpha))
        object.__setattr__(self, "T", tuple(tuple(row) for row in T))

    def phase_type_arrays(self) -> "PhaseTypeArrays":
        """alpha, T, t and the poles -eig(T); a diagonal T is reduced to minimal form."""
        alpha, T = np.array(self.alpha), np.array(self.T)
        if np.count_nonzero(T) == alpha.size:  # the diagonal of T has no zero
            return _diagonal_arrays(alpha, -np.diag(T))
        return PhaseTypeArrays(alpha, T, -T.sum(axis=1), -np.linalg.eigvals(T), False)


JumpDist = Union[HyperExpDist, PhaseTypeRepr]


class PhaseTypeArrays(NamedTuple):
    """A jump law as phase-type arrays: alpha, T, the exit rates t = -T 1,
    the eigenvalue magnitudes of -T and whether T is diagonal.  A diagonal
    T = -diag(eta) is minimal: distinct rates ascending, no zero weight."""

    alpha: np.ndarray
    T: np.ndarray
    t: np.ndarray
    poles: np.ndarray
    diagonal: bool


def _diagonal_arrays(weights, rates) -> PhaseTypeArrays:
    """Minimal arrays of the mixture sum_j w_j Exp(r_j): zero-weight phases
    dropped, equal rates merged with their weights summed, rates ascending."""
    w, r = np.asarray(weights, dtype=float), np.asarray(rates, dtype=float)
    eta, phase = np.unique(r[w != 0], return_inverse=True)
    alpha = np.bincount(phase, weights=w[w != 0], minlength=eta.size)
    return PhaseTypeArrays(alpha, -np.diag(eta), eta, eta, True)


def check_sigma_square(sigma: float) -> None:
    """Raise DomainError for a sigma > 0 whose square underflows to 0 or
    overflows, which would leave 2 / sigma^2 or sigma^2 s^2 / 2 meaningless."""
    if sigma > 0 and not 0 < float(sigma) * float(sigma) < math.inf:
        raise DomainError(f"sigma = {sigma!r}: sigma^2 leaves the float range")


def _like(s: np.ndarray, out: np.ndarray):
    """out as an array for an array s, else as a float (a complex for complex s)."""
    if out.ndim:
        return out
    return complex(out) if np.iscomplexobj(s) else float(out)


@dataclass(frozen=True)
class SnLevyModel:
    """Validated spectrally negative Levy model with PH/hyperexponential jumps.

    The jump formulas are written once, for phase-type jumps (alpha, T, t):
    hyperexponential jumps are the diagonal case T = -diag(eta).  Weights
    that sum to 1 only within the validator's tolerance (fitted tables) give
    Levy mass lam * sum(alpha), so psi(0) = 0.
    """

    mu: float
    sigma: float
    lam: float
    jumps: JumpDist
    case: str = field(init=False)

    def __post_init__(self):
        if not isinstance(self.jumps, (HyperExpDist, PhaseTypeRepr)):
            raise DomainError("jumps must be a HyperExpDist or a PhaseTypeRepr")
        if not all(math.isfinite(v) for v in (self.mu, self.sigma, self.lam)):
            raise DomainError("mu, sigma and lam must be finite")
        if self.sigma < 0:
            raise NegativeSubordinator("sigma must be >= 0")
        check_sigma_square(self.sigma)
        if self.lam < 0:
            raise NegativeSubordinator("jump rate must be >= 0")
        if self.sigma > 0:
            case = CASE1
        elif self.mu > 0:
            case = CASE2
        else:
            raise NegativeSubordinator("sigma = 0 requires mu > 0")
        object.__setattr__(self, "case", case)

    @cached_property
    def phase_type(self) -> PhaseTypeArrays:
        """The jump law as phase-type arrays; hyperexponential jumps have T = -diag(eta)."""
        return self.jumps.phase_type_arrays()

    @property
    def levy_mass(self) -> float:
        """Total mass of the Levy measure, lam * sum(alpha).

        Fitted parameter tables may carry weights summing to 1 only to a few
        decimals; small-time identities are sensitive to the actual mass.
        """
        return self.lam * float(self.phase_type.alpha.sum())

    def poles(self) -> np.ndarray:
        """Absolute values of the poles of psi (eigenvalue magnitudes of -T)."""
        return self.phase_type.poles if self.lam != 0 else np.array([])

    def _jump_moment(self, s: np.ndarray, b, power: int) -> np.ndarray:
        """lam alpha R(s)^power b elementwise in s, with the resolvent
        R(s) = (sI - T)^{-1}, for b a scalar or of shape (m,); raises
        PoleEvaluation where s is within tolerance of a pole of psi."""
        if self.lam == 0:
            return 0.0 * s  # without jumps psi has no poles
        alpha, T, _, poles, diagonal = self.phase_type
        # scale-free: tolerance follows the pole magnitude so that fitted
        # parameter sets with rates spanning many decades stay evaluable
        sj = s[..., None]
        off = sj + poles
        near = np.abs(off) < _POLE_REL_TOL * np.maximum(np.abs(sj), np.abs(poles))
        if near.any():
            k, j = divmod(int(np.flatnonzero(near)[0]), poles.size)
            raise PoleEvaluation(f"s={s.flat[k]} within tolerance of pole -{poles[j]}")
        if diagonal:
            y = b / off**power  # off = s + eta
        else:
            A = sj[..., None] * np.eye(alpha.size) - T
            y = np.broadcast_to(b, A.shape[:-1])[..., None]
            for _ in range(power):
                y = np.linalg.solve(A, y)
            y = y[..., 0]
        # a sum along the last axis adds in the same order for every shape of s
        return self.lam * (y * alpha).sum(-1)

    def jump_transform(self, s):
        """lam * E[e^{-s Y}] = lam alpha R(s) t for the jump size Y, at a scalar
        or elementwise on an array."""
        s = np.asarray(s)
        return _like(s, self._jump_moment(s, self.phase_type.t, 1))

    def laplace_exponent(self, s):
        """psi(s) = mu s + sigma^2 s^2 / 2 - lam s alpha R(s) 1, at a scalar or
        elementwise on an array; real input on the domain of analyticity gives
        real output, a scalar gives a scalar.

        The jump part equals lam (alpha R(s) t - sum(alpha)) through
        s R(s) 1 = 1 - R(s) t, but does not cancel near s = 0."""
        s = np.asarray(s)
        return _like(s, s * (self.mu + 0.5 * self.sigma**2 * s - self._jump_moment(s, 1.0, 1)))

    def laplace_exponent_derivative(self, s):
        """psi'(s), analytic form, at a scalar or elementwise on an array (real or complex)."""
        s = np.asarray(s)
        return _like(s, self.mu + self.sigma**2 * s - self.jump_tilted_mean(s))

    def jump_tilted_mean(self, s):
        """lam * E[Y e^{-s Y}] = lam alpha R(s)^2 t = mu + sigma^2 s - psi'(s),
        without cancellation; at a scalar or elementwise on an array (real or complex)."""
        s = np.asarray(s)
        return _like(s, self._jump_moment(s, self.phase_type.t, 2))


def validate_model(raw: dict) -> SnLevyModel:
    """Build a validated model from a plain mapping.

    Expected keys: ``drift``, ``sigma``, ``lambda`` and ``jump`` with either
    ``{"type": "hyperexp", "p": [...], "eta": [...]}`` or
    ``{"type": "phase_type", "alpha": [...], "T": [[...], ...]}``.
    """
    def num(v):  # float() and NumPy would take a JSON true or false as 1 or 0
        if isinstance(v, bool):
            raise TypeError(f"{v!r} is not a number")
        return v

    def nums(seq):
        return tuple(map(num, seq))

    try:
        mu = float(num(raw["drift"]))
        sigma = float(num(raw["sigma"]))
        lam = float(num(raw["lambda"]))
        jump_raw = raw["jump"]
        jtype = jump_raw["type"]
        if jtype == "hyperexp":
            jumps = HyperExpDist(p=nums(jump_raw["p"]), eta=nums(jump_raw["eta"]))
        elif jtype == "phase_type":
            jumps = PhaseTypeRepr(alpha=nums(jump_raw["alpha"]), T=tuple(map(nums, jump_raw["T"])))
        else:
            jumps = None
    except KeyError as exc:
        raise DomainError(f"missing model field: {exc}") from exc
    except (TypeError, ValueError) as exc:  # a field that is not a number or a list of them
        raise DomainError(f"malformed model field: {exc}") from exc
    if jumps is None:
        raise DomainError(f"unknown jump type {jtype!r}")
    return SnLevyModel(mu=mu, sigma=sigma, lam=lam, jumps=jumps)


def load_model_file(path: str) -> SnLevyModel:
    """Load a model spec file (JSON with the validate_model schema)."""
    with open(path) as fh:
        return validate_model(json.load(fh))


# Hyperexponential fits of Feldmann-Whitt type for two heavy-tailed jump laws,
# shipped verbatim as built-in parameter sets.
WEIBULL_FIT = HyperExpDist(
    p=(0.000018, 0.068340, 0.476233, 0.332195, 0.093283, 0.029931),
    eta=(0.09700, 0.24800, 0.76100, 4.27400, 38.7090, 676.178),
)

PARETO_FIT = HyperExpDist(
    p=(
        8.37e-11, 7.18e-10, 5.56e-09, 4.27e-08, 3.27e-07, 2.50e-06, 1.92e-05,
        0.000147, 0.001122, 0.008462, 0.059768, 0.307218, 0.533823, 0.089437,
    ),
    eta=(
        8.3e-09, 6.8e-08, 3.9e-07, 2.2e-06, 1.2e-05, 6.5e-05, 3.5e-04,
        0.0020, 0.0100, 0.0570, 0.3060, 1.5460, 6.5160, 23.304,
    ),
)

EXP1 = HyperExpDist(p=(1.0,), eta=(1.0,))

BUILTIN_JUMPS = {
    "exp1": EXP1,
    "weibull-fit": WEIBULL_FIT,
    "pareto-fit": PARETO_FIT,
}


def builtin_model(name: str, sigma: float = 1.0, mu: float = 5.0, lam: float = 5.0) -> SnLevyModel:
    """Named built-in models; drift/volatility/rate default to the two-sided
    exit benchmark scenario (mu = 5, lambda = 5)."""
    try:
        jumps = BUILTIN_JUMPS[name]
    except KeyError:
        raise DomainError(f"unknown built-in model {name!r}") from None
    return SnLevyModel(mu=mu, sigma=sigma, lam=lam, jumps=jumps)
