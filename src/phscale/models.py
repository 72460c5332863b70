"""Spectrally negative Levy models with phase-type or hyperexponential jumps.

A model is ``X_t - X_0 = mu*t + sigma*B_t - sum_{n<=N_t} Z_n`` with ``N`` a
Poisson process of rate ``lam`` and ``Z`` i.i.d. positive jumps.  Only two
regimes are admitted: ``sigma > 0`` (case 1, unbounded variation) and
``sigma = 0, mu > 0`` (case 2, compound Poisson drifting up between jumps).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

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
        if np.any(p <= 0) or abs(p.sum() - 1.0) > _SIMPLEX_TOL:
            raise SimplexViolation(f"weights must be positive and sum to 1, got sum={p.sum()!r}")
        if np.any(eta <= 0) or np.any(np.diff(eta) <= 0):
            raise NonIncreasingRates("rates must satisfy 0 < eta_1 < ... < eta_m")
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "eta", tuple(eta))

    @property
    def m(self) -> int:
        return len(self.p)

    def density(self, z: float) -> float:
        if z < 0:
            return 0.0
        p = np.asarray(self.p)
        eta = np.asarray(self.eta)
        return float(np.sum(p * eta * np.exp(-eta * z)))

    def mean(self) -> float:
        return float(np.sum(np.asarray(self.p) / np.asarray(self.eta)))

    def as_phase_type(self) -> "PhaseTypeRepr":
        """Equivalent PH representation with diagonal generator."""
        return PhaseTypeRepr(
            alpha=tuple(self.p),
            T=tuple(tuple(row) for row in -np.diag(self.eta)),
        )


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
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > _SIMPLEX_TOL:
            raise SimplexViolation("alpha must be a probability simplex")
        if np.any(np.diag(T) >= 0):
            raise SingularGenerator("diagonal of T must be strictly negative")
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

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def exit_rates(self) -> np.ndarray:
        return -np.asarray(self.T).sum(axis=1)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(np.asarray(self.T))

    def density(self, z: float) -> float:
        from scipy.linalg import expm  # SciPy loads on first use only

        if z < 0:
            return 0.0
        T = np.asarray(self.T)
        return float(np.asarray(self.alpha) @ expm(T * z) @ self.exit_rates)

    def mean(self) -> float:
        T = np.asarray(self.T)
        ones = np.ones(self.m)
        return float(-np.asarray(self.alpha) @ np.linalg.solve(T, ones))


JumpDist = Union[HyperExpDist, PhaseTypeRepr]


def _like(s: np.ndarray, out: np.ndarray):
    """out as an array for an array s, else as a float (a complex for complex s)."""
    if out.ndim:
        return out
    return complex(out) if np.iscomplexobj(s) else float(out)


@dataclass(frozen=True)
class SnLevyModel:
    """Validated spectrally negative Levy model with PH/hyperexponential jumps."""

    mu: float
    sigma: float
    lam: float
    jumps: JumpDist
    case: str = field(init=False)

    def __post_init__(self):
        if self.sigma < 0:
            raise NegativeSubordinator("sigma must be >= 0")
        if self.lam < 0:
            raise NegativeSubordinator("jump rate must be >= 0")
        if self.sigma > 0:
            case = CASE1
        elif self.mu > 0:
            case = CASE2
        else:
            raise NegativeSubordinator("sigma = 0 requires mu > 0")
        object.__setattr__(self, "case", case)

    @property
    def is_hyperexp(self) -> bool:
        return isinstance(self.jumps, HyperExpDist)

    @property
    def levy_mass(self) -> float:
        """Total mass of the Levy measure, lam * (jump distribution mass).

        Fitted parameter tables may carry weights summing to 1 only to a few
        decimals; small-time identities are sensitive to the actual mass.
        """
        if self.lam == 0:
            return 0.0
        if self.is_hyperexp:
            w = float(np.sum(self.jumps.p))
        else:
            w = float(np.sum(self.jumps.alpha))
        return self.lam * w

    def jump_transform(self, s: float) -> float:
        """lam * E[e^{-s Y}] at s >= 0 for the jump size Y."""
        if self.lam == 0:
            return 0.0
        if self.is_hyperexp:
            p, eta = self._jump_arrays
            return float(self.lam * (p @ (eta / (eta + s))))
        alpha, T, t = self._jump_arrays
        return float(self.lam * (alpha @ np.linalg.solve(s * np.eye(T.shape[0]) - T, t)))

    def poles(self) -> np.ndarray:
        """Absolute values of the poles of psi (eigenvalue magnitudes of -T)."""
        if self.lam == 0:
            return np.array([])
        if self.is_hyperexp:
            return np.asarray(self.jumps.eta, dtype=float)
        return -self.jumps.eigenvalues()

    @cached_property
    def _pole_guard(self) -> tuple:
        """The poles of psi and _POLE_REL_TOL times their magnitudes."""
        poles = np.atleast_1d(self.poles())
        return poles, _POLE_REL_TOL * np.abs(poles)

    @cached_property
    def _jump_arrays(self) -> tuple:
        """(p, eta) for hyperexponential jumps, (alpha, T, t) for phase-type ones."""
        if self.is_hyperexp:
            return np.asarray(self.jumps.p), np.asarray(self.jumps.eta)
        return np.asarray(self.jumps.alpha), np.asarray(self.jumps.T), self.jumps.exit_rates

    def _pole_offsets(self, s: np.ndarray) -> np.ndarray:
        """s + pole for each pole of psi along a new last axis; raises
        PoleEvaluation where s is within tolerance of a pole."""
        # scale-free: tolerance follows the pole magnitude so that fitted
        # parameter sets with rates spanning many decades stay evaluable
        poles, pole_tol = self._pole_guard
        sj = s[..., None]
        off = sj + poles
        near = np.abs(off) < np.maximum(_POLE_REL_TOL * np.abs(sj), pole_tol)
        if near.any():
            k, j = divmod(int(np.flatnonzero(near)[0]), poles.size)
            raise PoleEvaluation(f"s={s.flat[k]} within tolerance of pole -{poles[j]}")
        return off

    def _resolvent(self, s: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(sI - T)^{-1} b elementwise in s, for b of shape (m,) or s.shape + (m,)."""
        _, T, _ = self._jump_arrays
        A = s[..., None, None] * np.eye(T.shape[0]) - T
        return np.linalg.solve(A, np.broadcast_to(b, A.shape[:-1])[..., None])[..., 0]

    def laplace_exponent(self, s):
        """psi(s) at a scalar or elementwise on an array; real input on the
        domain of analyticity gives real output, a scalar gives a scalar."""
        s = np.asarray(s)
        off = self._pole_offsets(s)
        out = s * (self.mu + 0.5 * self.sigma**2 * s)
        if self.lam != 0 and self.is_hyperexp:
            p, _ = self._jump_arrays
            out = out - self.lam * ((s[..., None] / off) @ p)  # off = eta + s
        elif self.lam != 0:
            # lam (alpha (sI-T)^{-1} t - 1) through (sI-T)^{-1} t = 1 - s (sI-T)^{-1} 1,
            # which does not cancel near s = 0; a deficient alpha leaves -lam (1 - sum alpha)
            alpha, _, _ = self._jump_arrays
            y = self._resolvent(s, np.ones(alpha.size))
            out = out - self.lam * (s * (y @ alpha) + (1.0 - alpha.sum()))
        return _like(s, out)

    def laplace_exponent_derivative(self, s):
        """psi'(s), analytic form, at a scalar or elementwise on an array (real or complex)."""
        s = np.asarray(s)
        return _like(s, self.mu + self.sigma**2 * s - self.jump_tilted_mean(s))

    def jump_tilted_mean(self, s):
        """lam * E[Y e^{-s Y}] = mu + sigma^2 s - psi'(s), without cancellation;
        at a scalar or elementwise on an array (real or complex)."""
        s = np.asarray(s)
        off = self._pole_offsets(s)
        if self.lam == 0:
            out = 0.0 * s
        elif self.is_hyperexp:
            p, eta = self._jump_arrays
            out = self.lam * np.sum(p * eta / off**2, axis=-1)
        else:
            alpha, _, t = self._jump_arrays
            out = self.lam * (self._resolvent(s, self._resolvent(s, t)) @ alpha)
        return _like(s, out)

    def jump_density(self, z: float) -> float:
        if self.lam == 0:
            raise DomainError("model has no jump component")
        return self.jumps.density(z)


def validate_model(raw: dict) -> SnLevyModel:
    """Build a validated model from a plain mapping.

    Expected keys: ``drift``, ``sigma``, ``lambda`` and ``jump`` with either
    ``{"type": "hyperexp", "p": [...], "eta": [...]}`` or
    ``{"type": "phase_type", "alpha": [...], "T": [[...], ...]}``.
    """
    try:
        mu = float(raw["drift"])
        sigma = float(raw["sigma"])
        lam = float(raw["lambda"])
        jump_raw = raw["jump"]
        jtype = jump_raw["type"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"missing model field: {exc}") from exc
    if jtype == "hyperexp":
        jumps: JumpDist = HyperExpDist(p=tuple(jump_raw["p"]), eta=tuple(jump_raw["eta"]))
    elif jtype == "phase_type":
        jumps = PhaseTypeRepr(
            alpha=tuple(jump_raw["alpha"]),
            T=tuple(tuple(row) for row in jump_raw["T"]),
        )
    else:
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
