"""Monte Carlo first-passage oracle.

The discount e^{-q tau} is read as killing at an independent Exp(q) time, so
a path runs through epochs of length T ~ Exp(lambda + q), each ending in a
jump with probability lambda/(lambda + q) and in killing otherwise.  For
sigma > 0 (the default, ``substeps=None``, scheme ``"bridge"``) an epoch is
sampled exactly: the Brownian endpoint y' = y + mu T + sigma sqrt(T) N(0, 1),
then one uniform against the Brownian-bridge probability that the path left
(0, inf) -- or the strip (0, b), through 0 or through b first -- inside the
epoch (Kuznetsov, Kyprianou, Pardo & van Schaik 2011; Glasserman 2003, 6.4).
A crossing of 0 inside an epoch is creeping, with overshoot and undershoot
exactly 0.  The estimates are then exact up to rounding in the image series.

``substeps=n`` selects the paper's validation protocol instead (scheme
``"grid-<n>"``, the paper uses n = 100): e^{-q tau} weights up to a horizon
e^{-q t} < 1e-8, exponential interarrival times at the jump rate, and
Brownian segments advanced on an n-point random-walk subgrid with crossings
tested at grid points only, a detector biased towards too few exits.
Drift-only segments (sigma = 0, scheme ``"drift"``) are crossed exactly under
the same e^{-q tau} weights.  Fixed (seed, batch) RNG streams make every
estimate bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError
from .models import PhaseTypeArrays, SnLevyModel

_HORIZON_EPS = 1e-8
_TAIL = -0.5 * math.log(np.finfo(float).eps)  # image terms beyond e^{-2 _TAIL} are dropped
_EXP_FLOOR = -700.0  # e^{-700} ~ 1e-304; below it np.exp slows down on underflow
_BATCH = 20_000  # fixed so that results are independent of total path count


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimate with standard error and normal 95% CI; ``scheme`` is
    the sampling scheme: "bridge", "grid-<substeps>" or "drift"."""

    value: float
    stderr: float
    ci95: Tuple[float, float]
    n_paths: int
    seed: int
    scheme: str = "bridge"

    @staticmethod
    def from_sums(s: float, s2: float, n: int, seed: int,
                  scheme: str = "bridge") -> "SimulationEstimate":
        mean = s / n
        var = max(s2 / n - mean**2, 0.0)
        se = math.sqrt(var / n)
        return SimulationEstimate(
            value=mean, stderr=se, ci95=(mean - 1.96 * se, mean + 1.96 * se),
            n_paths=n, seed=seed, scheme=scheme,
        )


@dataclass(frozen=True)
class HistogramEstimate:
    """Binned discounted-indicator density estimate (per unit level); ``scheme``
    as in ``SimulationEstimate``."""

    edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    n_paths: int
    seed: int
    scheme: str = "bridge"

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative weights normalised as ``Generator.choice(p=p)`` normalises
    them, so ``cdf.searchsorted(rng.random(n), side="right")`` draws the
    components that ``rng.choice(len(p), n, p=p)`` would, without its checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _jump_sampler(ph: PhaseTypeArrays):
    """sample(rng, n) -> n i.i.d. jump sizes of the phase-type law (alpha, T, t);
    its tables are built once, here."""
    alpha, T, t, _, diagonal = ph
    start = _choice_cdf(alpha / alpha.sum())
    if diagonal:  # one exponential of rate t_j = eta_j in the drawn phase
        scale = 1.0 / t
        return lambda rng, n: rng.exponential(scale[start.searchsorted(rng.random(n), side="right")])
    m = alpha.size
    total = -np.diag(T)
    # cumulative transition probabilities out of each state (to states, then absorb)
    probs = np.column_stack((T, t)) / total[:, None]
    probs[np.arange(m), np.arange(m)] = 0.0
    cum = np.cumsum(probs, axis=1)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        # CTMC absorption time, vectorized over the surviving samples
        state = start.searchsorted(rng.random(n), side="right")
        time = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        while alive.any():
            idx = np.flatnonzero(alive)
            s = state[idx]
            time[idx] += rng.exponential(1.0 / total[s])
            u = rng.random(len(idx))
            nxt = (u[:, None] > cum[s]).sum(axis=1)
            absorbed = nxt == m
            alive[idx[absorbed]] = False
            state[idx[~absorbed]] = nxt[~absorbed]
        return time

    return sample


def _scheme(model: SnLevyModel, q: float, n_paths: int, substeps: Optional[int]) -> str:
    """Name of the sampling scheme; rejects a q that is not positive and
    finite, fewer than 1 path and a grid of fewer than 1 substep."""
    if not 0 < q < math.inf:
        raise DomainError("q must be > 0 and finite")
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    if substeps is not None and substeps < 1:
        raise DomainError("substeps must be >= 1")
    if model.sigma == 0:
        return "drift"
    return "bridge" if substeps is None else f"grid-{substeps}"


def bridge_exit_probabilities(y, y_end, s, b: Optional[float] = None):
    """(p_down, p_up): probabilities that a Brownian bridge from y to y_end
    with variance s = sigma^2 T leaves (0, b) first through 0, first through
    b, within the epoch; b = None is the half-line (0, inf) and p_up = 0.

    For 0 <= y <= b the image series are

        p_down = sum_{k>=0} e^{-2(kb+y')(kb+y)/s} - sum_{k>=1} e^{-2kb(kb+y'-y)/s}
        p_up   = sum_{k>=1} e^{-2(kb-y')(kb-y)/s} - e^{-2kb(kb-y'+y)/s}

    the first for y' >= 0, the second for y' <= b; an endpoint beyond a
    barrier has left for sure, so there the other side's complement is used.
    Terms of index k are at most e^{-2(k-1)^2 b^2/s}, so the sums stop once
    that falls below machine epsilon.  As b -> inf, p_down -> e^{-2yy'/s}.
    """
    y, y_end, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, y_end, s)))
    c = -2.0 / s

    def image(a, d):  # e^{-2ad/s}, floored at e^{_EXP_FLOOR}
        return np.exp(np.maximum(c * a * d, _EXP_FLOOR))

    if b is None:
        return image(np.maximum(y * y_end, 0.0), 1.0), np.zeros(y.shape)
    lo = np.maximum(y_end, 0.0)  # p_down series holds for y' >= 0
    hi = np.minimum(y_end, b)    # p_up series holds for y' <= b
    p_dn = image(lo, y)
    p_up = np.zeros(y.shape)
    for k in range(1, math.ceil(math.sqrt(_TAIL * s.max(initial=0.0)) / b) + 1):
        kb = k * b
        p_dn += image(kb + lo, kb + y) - image(kb, kb + lo - y)
        p_up += image(kb - hi, kb - y) - image(kb, kb - hi + y)
    p_dn = np.where(y_end < 0.0, 1.0 - p_up, p_dn)
    p_up = np.where(y_end > b, 1.0 - p_dn, p_up)
    return np.clip(p_dn, 0.0, 1.0), np.clip(p_up, 0.0, 1.0)


def _bridge_batch(
    model: SnLevyModel,
    q: float,
    x: float,
    b: Optional[float],
    n: int,
    rng: np.random.Generator,
    collect_crossing: bool,
):
    """Exact epochs with killing at rate q (sigma > 0); same returns as
    ``_run_batch``, with 0/1 indicators in place of discounts."""
    mu, var, lam = model.mu, model.sigma**2, model.lam
    rate = lam + q
    up = np.zeros(n)
    down = np.zeros(n)
    over = np.full(n, np.nan)
    under = np.full(n, np.nan)
    if b is not None and x >= b:
        up[:] = 1.0
        return up, down, over, under
    idx = np.arange(n)
    pos = np.full(n, float(x))
    sample_jumps = _jump_sampler(model.phase_type)
    while idx.size:
        k = idx.size
        T = rng.exponential(1.0 / rate, size=k)
        s = var * T
        end = pos + mu * T + np.sqrt(s) * rng.standard_normal(k)
        p_dn, p_up = bridge_exit_probabilities(pos, end, s, b)
        u = rng.random(k)
        dn = u < p_dn
        hit_up = ~dn & (u < p_dn + p_up)
        down[idx[dn]] = 1.0
        up[idx[hit_up]] = 1.0
        if collect_crossing:  # creeping
            over[idx[dn]] = 0.0
            under[idx[dn]] = 0.0
        jumped = ~(dn | hit_up) & (rng.random(k) * rate < lam)
        idx, pos = idx[jumped], end[jumped]
        if idx.size:
            after = pos - sample_jumps(rng, idx.size)
            crossed = after < 0.0
            down[idx[crossed]] = 1.0
            if collect_crossing:
                over[idx[crossed]] = -after[crossed]
                under[idx[crossed]] = pos[crossed]
            idx, pos = idx[~crossed], after[~crossed]
    return up, down, over, under


def _run_batch(
    model: SnLevyModel,
    q: float,
    x: float,
    b: Optional[float],
    n: int,
    rng: np.random.Generator,
    collect_crossing: bool,
    substeps: Optional[int] = None,
):
    """Advance n paths from x until exit or horizon.

    Returns (up_discounts, down_discounts, overshoot, undershoot) arrays of
    length n; non-exiting entries are 0 discounts / NaN levels.  For sigma > 0
    and ``substeps=None`` the exact bridge epochs of ``_bridge_batch`` run.
    """
    if model.sigma > 0 and substeps is None:
        return _bridge_batch(model, q, x, b, n, rng, collect_crossing)
    t_max = math.log(1.0 / _HORIZON_EPS) / q
    pos = np.full(n, float(x))
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    up = np.zeros(n)
    down = np.zeros(n)
    over = np.full(n, np.nan)
    under = np.full(n, np.nan)
    mu, sigma, lam = model.mu, model.sigma, model.lam
    sample_jumps = _jump_sampler(model.phase_type)

    # immediate exits at the start position
    if b is not None:
        at_top = pos >= b
        up[at_top] = 1.0
        active &= ~at_top

    while active.any():
        idx = np.flatnonzero(active)
        k = len(idx)
        if lam > 0:
            T = rng.exponential(1.0 / lam, size=k)
        else:
            T = np.full(k, 1.0)  # driftless chunking for jump-free models
        p0 = pos[idx]
        t0 = t[idx]

        if sigma > 0:
            dt = T / substeps
            steps = (
                mu * dt[:, None] * np.arange(1, substeps + 1)
                + sigma * np.sqrt(dt)[:, None]
                * np.cumsum(rng.standard_normal((k, substeps)), axis=1)
            )
            path = p0[:, None] + steps
            hit_dn = path < 0.0
            hit_up = path >= b if b is not None else np.zeros_like(hit_dn)
            hit = hit_dn | hit_up
            any_hit = hit.any(axis=1)
            first = np.argmax(hit, axis=1)
            rows = np.flatnonzero(any_hit)
            cols = first[rows]
            t_hit = t0[rows] + dt[rows] * (cols + 1)
            val = np.exp(-q * t_hit)
            is_dn = hit_dn[rows, cols]
            gidx = idx[rows]
            down[gidx[is_dn]] = val[is_dn]
            up[gidx[~is_dn]] = val[~is_dn]
            if collect_crossing:
                over[gidx[is_dn]] = -path[rows[is_dn], cols[is_dn]]
                prev = np.where(
                    cols[is_dn] > 0,
                    path[rows[is_dn], np.maximum(cols[is_dn] - 1, 0)],
                    p0[rows[is_dn]],
                )
                under[gidx[is_dn]] = prev
            active[gidx] = False
            survivors = np.flatnonzero(~any_hit)
            pos[idx[survivors]] = path[survivors, -1]
        else:
            # exact drift crossing of the upper barrier
            if b is not None:
                reach = p0 + mu * T >= b
                t_up = t0 + (b - p0) / mu
                gup = idx[reach]
                up[gup] = np.exp(-q * t_up[reach])
                active[gup] = False
                survivors = np.flatnonzero(~reach)
            else:
                survivors = np.arange(k)
            pos[idx[survivors]] += mu * T[survivors]

        live = idx[survivors]
        t[live] += T[survivors]
        if lam > 0 and len(live):
            z = sample_jumps(rng, len(live))
            before = pos[live]
            after = before - z
            crossed = after < 0.0
            gdn = live[crossed]
            down[gdn] = np.exp(-q * t[gdn])
            if collect_crossing:
                over[gdn] = -after[crossed]
                under[gdn] = before[crossed]
            active[gdn] = False
            pos[live[~crossed]] = after[~crossed]

        expired = active & (t > t_max)
        active &= ~expired
    return up, down, over, under


def _batches(model: SnLevyModel, q: float, x: float, b: Optional[float], n_paths: int,
             seed: int, collect_crossing: bool, substeps: Optional[int]):
    """The ``_run_batch`` results for n_paths paths in batches of ``_BATCH``,
    batch k on its own stream ``default_rng([seed, k])``."""
    for k, done in enumerate(range(0, n_paths, _BATCH)):
        rng = np.random.default_rng([seed, k])
        yield _run_batch(model, q, x, b, min(_BATCH, n_paths - done), rng,
                         collect_crossing, substeps)


def simulate_two_sided_exit(
    model: SnLevyModel,
    q: float,
    x: float,
    b: float,
    n_paths: int,
    seed: int,
    substeps: Optional[int] = None,
) -> Tuple[SimulationEstimate, SimulationEstimate]:
    """(up, down) estimates of the discounted two-sided exit probabilities.

    ``substeps=None`` samples sigma > 0 paths by exact bridge epochs;
    ``substeps=100`` is the paper's random-walk grid.
    """
    scheme = _scheme(model, q, n_paths, substeps)
    if b <= 0 or not (0 <= x <= b and x < math.inf):
        raise DomainError("need 0 <= x <= b, b > 0, x finite")
    su = su2 = sd = sd2 = 0.0
    for u, d, _, _ in _batches(model, q, x, b, n_paths, seed, False, substeps):
        su += u.sum()
        su2 += (u**2).sum()
        sd += d.sum()
        sd2 += (d**2).sum()
    return (
        SimulationEstimate.from_sums(su, su2, n_paths, seed, scheme),
        SimulationEstimate.from_sums(sd, sd2, n_paths, seed, scheme),
    )


def simulate_overshoot_undershoot(
    model: SnLevyModel,
    q: float,
    x: float,
    window_width: float,
    n_paths: int,
    seed: int,
    a_max: float = 10.0,
    b_max: Optional[float] = None,
    substeps: Optional[int] = None,
) -> Tuple[HistogramEstimate, HistogramEstimate]:
    """Binned discounted overshoot/undershoot laws at the first down-crossing.

    Returns (overshoot_hist, undershoot_hist); densities are per unit level so
    they compare directly against the closed-form densities at bin centers.
    Creeping paths (sigma > 0) land at overshoot 0 and undershoot 0, in the
    first bin of each histogram.  ``substeps`` selects the scheme as in
    ``simulate_two_sided_exit``.
    """
    scheme = _scheme(model, q, n_paths, substeps)
    if not (0 < x < math.inf and 0 < window_width < math.inf):
        raise DomainError("x and window_width must be > 0 and finite")
    if b_max is None:
        b_max = 2.0 * x
    edges_a = np.arange(0.0, a_max + window_width / 2, window_width)
    edges_b = np.arange(0.0, b_max + window_width / 2, window_width)
    sums_a = np.zeros(len(edges_a) - 1)
    sq_a = np.zeros_like(sums_a)
    sums_b = np.zeros(len(edges_b) - 1)
    sq_b = np.zeros_like(sums_b)
    for _, d, over, under in _batches(model, q, x, None, n_paths, seed, True, substeps):
        mask = d > 0
        sums_a += np.histogram(over[mask], bins=edges_a, weights=d[mask])[0]
        sq_a += np.histogram(over[mask], bins=edges_a, weights=d[mask] ** 2)[0]
        sums_b += np.histogram(under[mask], bins=edges_b, weights=d[mask])[0]
        sq_b += np.histogram(under[mask], bins=edges_b, weights=d[mask] ** 2)[0]

    def finish(s, s2, edges):
        mean = s / n_paths
        var = np.maximum(s2 / n_paths - mean**2, 0.0)
        se = np.sqrt(var / n_paths)
        return HistogramEstimate(
            edges=edges,
            density=mean / window_width,
            stderr=se / window_width,
            n_paths=n_paths,
            seed=seed,
            scheme=scheme,
        )

    return finish(sums_a, sq_a, edges_a), finish(sums_b, sq_b, edges_b)
