"""Spectrally negative Levy models with phase-type or hyperexponential jumps.

A model is ``X_t - X_0 = mu*t + sigma*B_t - sum_{n<=N_t} Z_n`` with ``N`` a
Poisson process of rate ``lam`` and ``Z`` i.i.d. positive jumps.  Only two
regimes are admitted, and ``sigma > 0`` is the one test between them:
``sigma > 0`` (unbounded variation) and ``sigma = 0, mu > 0`` (compound
Poisson drifting up between jumps).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    NegativeSubordinator,
    NonIncreasingRates,
    PoleEvaluation,
    SimplexViolation,
    SingularGenerator,
)

# Loose enough to admit published fitted parameter tables that sum to 1 only
# to ~6 decimal places.
_SIMPLEX_TOL = 1e-5
_POLE_REL_TOL = 1e-12  # relative guard around poles of psi
_CELLS = 1024  # cells of the phase-draw table; a power of 2, so u * _CELLS is exact


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
        # every test is invariant under T -> cT, c > 0: the sign tolerances
        # follow each row's rate |T_ii|, and singularity is judged by cond(T)
        rate = -np.diag(T)
        off = T - np.diag(np.diag(T))
        if np.any(off < -1e-12 * rate[:, None]):
            raise SingularGenerator("off-diagonal entries of T must be nonnegative")
        t = -T.sum(axis=1)
        if np.any(t < -1e-9 * rate):
            raise SingularGenerator("row sums of [T | t] must vanish with t >= 0")
        if not np.linalg.cond(T) * np.finfo(float).eps < 1:  # also for cond = inf or nan
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


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative weights normalised as ``Generator.choice(p=p)`` normalises
    them, so ``cdf.searchsorted(rng.random(n), side="right")`` draws the
    components that ``rng.choice(len(p), n, p=p)`` would, without its checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _table_search(cdf: np.ndarray):
    """draw(u) -> ``cdf.searchsorted(u, side="right")`` for u in [0, 1),
    through a table of ``_CELLS`` equal cells built once, here.

    u * _CELLS is exact, so each u falls in its true cell.  The search is
    constant on a cell [i, i + 1) / _CELLS unless a cdf value lies strictly
    inside it; the table holds that constant, or -1 for the few cells that a
    cdf step straddles, whose u alone are searched."""
    edges = np.arange(_CELLS + 1) / _CELLS
    lo = cdf.searchsorted(edges[:-1], side="right")
    table = np.where(lo == cdf.searchsorted(edges[1:], side="left"), lo, -1)

    def draw(u: np.ndarray) -> np.ndarray:
        found = table[(u * _CELLS).astype(np.intp)]
        odd = np.flatnonzero(found < 0)
        if odd.size:
            found[odd] = cdf.searchsorted(u[odd], side="right")
        return found

    return draw


def _jump_sampler(ph: PhaseTypeArrays):
    """sample(rng, n) -> n i.i.d. jump sizes of the phase-type law (alpha, T, t);
    its tables are built once, here."""
    alpha, T, t, _, diagonal = ph
    start = _table_search(_choice_cdf(alpha / alpha.sum()))
    if diagonal:  # one exponential of rate t_j = eta_j in the drawn phase
        scale = 1.0 / t

        def sample_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
            phase = start(rng.random(n))
            # bit for bit rng.exponential(scale[phase]), which multiplies the same draws
            return rng.standard_exponential(n) * scale[phase]

        return sample_diagonal
    m = alpha.size
    total = -np.diag(T)
    scale = 1.0 / total
    # cumulative transition probabilities out of each state (to states, then absorb)
    probs = np.column_stack((T, t)) / total[:, None]
    probs[np.arange(m), np.arange(m)] = 0.0
    cum = np.cumsum(probs, axis=1)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        # CTMC absorption time over the compact (idx, state) of the unabsorbed
        # samples, kept in ascending order
        state = start(rng.random(n))
        time = np.zeros(n)
        idx = np.arange(n)
        while idx.size:
            # bit for bit rng.exponential(scale[state]), which multiplies the same draws
            time[idx] += rng.standard_exponential(idx.size) * scale[state]
            nxt = (rng.random(idx.size)[:, None] > cum[state]).sum(axis=1)
            go = np.flatnonzero(nxt < m)
            idx, state = idx[go], nxt[go]
        return time

    return sample


def near_pole(s, poles):
    """(s + p, |s + p| < _POLE_REL_TOL * max(|s|, |p|)) for every s
    (elementwise) and every p of the 1-d ``poles`` (on a new last axis): the
    offsets from the poles -p and whether s counts as on one.  The tolerance
    is relative, so that rates spanning many decades, and roots next to 0,
    stay evaluable."""
    sj = np.asarray(s)[..., None]
    off = sj + poles
    return off, np.abs(off) < _POLE_REL_TOL * np.maximum(np.abs(sj), np.abs(poles))


def pole_offsets(s, poles) -> np.ndarray:
    """The offsets s + p of ``near_pole``; raises PoleEvaluation where s is on a pole."""
    off, near = near_pole(s, poles)
    if near.any():
        k, j = divmod(int(np.flatnonzero(near)[0]), poles.size)
        raise PoleEvaluation(f"s={np.ravel(s)[k]} within tolerance of pole -{poles[j]}")
    return off


def check_sigma(sigma: float) -> None:
    """Refuse sigma < 0, and a sigma > 0 whose square underflows to 0 or
    overflows, which would leave 2 / sigma^2 or sigma^2 s^2 / 2 meaningless."""
    if sigma < 0:
        raise NegativeSubordinator("sigma must be >= 0")
    if sigma > 0 and not 0 < float(sigma) * float(sigma) < math.inf:
        raise DomainError(f"sigma = {sigma!r}: sigma^2 leaves the float range")


def check_drift(sigma: float, mu: float) -> None:
    """Refuse sigma = 0 with mu <= 0, a process that never moves up."""
    if sigma == 0 and not mu > 0:
        raise NegativeSubordinator("sigma = 0 requires mu > 0")


def check_positive(name: str, value: float) -> None:
    """Refuse a value that is not > 0 and finite, NaN included."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be > 0 and finite")


def check_barriers(x: float, b: float) -> None:
    """Refuse a two-sided exit from x between the barriers 0 and b unless
    0 <= x <= b, b > 0 and x is finite (b may be inf)."""
    if b <= 0 or not (0 <= x <= b and x < math.inf):
        raise DomainError("need 0 <= x <= b, b > 0, x finite")


@dataclass(frozen=True, eq=False)
class RealPoles:
    """mu, sigma, the mean drift d = psi'(0+) and the Levy density sum_k c_k e^{-eta_k y}
    of a model with real poles -eta_k: a diagonal phase-type law, c = lam alpha eta, with
    lam and alpha for its forms; or the beta-family, whose c and eta are functions of k."""

    mu: float
    sigma: float
    d: float
    c: object
    eta: object
    lam: float = 0.0
    alpha: Optional[np.ndarray] = None

    def _moment(self, s, b, power):  # lam alpha (sI + diag(eta))^-power b, lam applied last
        return self.lam * ((b / pole_offsets(s, self.eta)**power) * self.alpha).sum(-1)

    def psi(self, s):
        return s * (self.mu + 0.5 * self.sigma**2 * s - self._moment(s, 1.0, 1))

    def psi_prime(self, s):
        return self.mu + self.sigma**2 * s - self.tilted_mean(s)

    def jump_transform(self, s):
        return self._moment(s, self.eta, 1)

    def tilted_mean(self, s):
        return self._moment(s, self.eta, 2)


def like(x, vals):
    """vals as a Python float (a complex for complex vals) when x is a scalar,
    else as the array: the one scalar rule of every evaluator.  vals holds
    one value per point of x, a scalar x being one point."""
    return vals.item(0) if np.ndim(x) == 0 else vals


@dataclass(frozen=True)
class SnLevyModel:
    """Validated spectrally negative Levy model with PH/hyperexponential jumps.

    Hyperexponential jumps and any diagonal T = -diag(eta) take their
    formulas from ``real_poles``, any other T from its resolvent.  Weights
    that sum to 1 only within the validator's tolerance (fitted tables) give
    Levy mass lam * sum(alpha), so psi(0) = 0.
    """

    mu: float
    sigma: float
    lam: float
    jumps: JumpDist

    def __post_init__(self):
        if not isinstance(self.jumps, (HyperExpDist, PhaseTypeRepr)):
            raise DomainError("jumps must be a HyperExpDist or a PhaseTypeRepr")
        if not all(math.isfinite(v) for v in (self.mu, self.sigma, self.lam)):
            raise DomainError("mu, sigma and lam must be finite")
        check_sigma(self.sigma)
        if self.lam < 0:
            raise NegativeSubordinator("jump rate must be >= 0")
        check_drift(self.sigma, self.mu)

    @cached_property
    def phase_type(self) -> PhaseTypeArrays:
        """The jump law as phase-type arrays, T = -diag(eta) for hyperexponential
        jumps; without jumps (lam = 0) the empty diagonal law, whatever ``jumps`` holds."""
        return self.jumps.phase_type_arrays() if self.lam > 0 else _diagonal_arrays((), ())

    @property
    def levy_mass(self) -> float:
        """Total mass of the Levy measure, lam * sum(alpha).

        Fitted parameter tables may carry weights summing to 1 only to a few
        decimals; small-time identities are sensitive to the actual mass.
        """
        return self.lam * float(self.phase_type.alpha.sum())

    @cached_property
    def sample_jumps(self):
        """sample(rng, n) -> n i.i.d. jump sizes; its tables are built once per model."""
        return _jump_sampler(self.phase_type)

    @cached_property
    def real_poles(self) -> Optional[RealPoles]:
        """The record of a diagonal T = -diag(eta), empty without jumps; None for any other T."""
        alpha, _, _, eta, diagonal = self.phase_type
        return RealPoles(self.mu, self.sigma, self.mu - self.lam * (alpha / eta).sum(),
                         self.lam * alpha * eta, eta, self.lam, alpha) if diagonal else None

    def _jump_moment(self, s: np.ndarray, b, power: int) -> np.ndarray:
        """lam alpha R(s)^power b elementwise in s for a non-diagonal T, R(s) = (sI - T)^{-1},
        b a scalar or of shape (m,); raises PoleEvaluation where s is on a pole."""
        alpha, T, _, poles, _ = self.phase_type
        pole_offsets(s, poles)
        A = s[..., None, None] * np.eye(alpha.size) - T
        y = np.broadcast_to(b, A.shape[:-1])[..., None]
        for _ in range(power):
            y = np.linalg.solve(A, y)
        # a sum along the last axis adds in the same order for every shape of s
        return self.lam * (y[..., 0] * alpha).sum(-1)

    def jump_transform(self, s):
        """lam * E[e^{-s Y}] = lam alpha R(s) t for the jump size Y, at a scalar
        or elementwise on an array."""
        s, rp = np.asarray(s), self.real_poles
        return like(s, rp.jump_transform(s) if rp else self._jump_moment(s, self.phase_type.t, 1))

    def laplace_exponent(self, s):
        """psi(s) = mu s + sigma^2 s^2 / 2 - lam s alpha R(s) 1, at a scalar or
        elementwise on an array; real input on the domain of analyticity gives
        real output, a scalar gives a scalar.

        The jump part equals lam (alpha R(s) t - sum(alpha)) through
        s R(s) 1 = 1 - R(s) t, but does not cancel near s = 0."""
        s, rp = np.asarray(s), self.real_poles
        return like(s, rp.psi(s) if rp else
                    s * (self.mu + 0.5 * self.sigma**2 * s - self._jump_moment(s, 1.0, 1)))

    def laplace_exponent_derivative(self, s):
        """psi'(s), analytic form, at a scalar or elementwise on an array (real or complex)."""
        s, rp = np.asarray(s), self.real_poles
        return like(s, rp.psi_prime(s) if rp else
                    self.mu + self.sigma**2 * s - self.jump_tilted_mean(s))

    def jump_tilted_mean(self, s):
        """lam * E[Y e^{-s Y}] = lam alpha R(s)^2 t = mu + sigma^2 s - psi'(s),
        without cancellation; at a scalar or elementwise on an array (real or complex)."""
        s, rp = np.asarray(s), self.real_poles
        return like(s, rp.tilted_mean(s) if rp else self._jump_moment(s, self.phase_type.t, 2))


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
