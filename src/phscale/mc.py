"""Monte Carlo first-passage oracle.

A model gives its ``mu``, its ``sigma``, the total mass Lambda of its Levy
measure (``levy_mass``), the jump rate, and ``sample_jumps(rng, n)``, which
draws n jumps of the normalised Levy measure; an infinite Lambda is refused.
The discount e^{-q tau} is read as killing at an independent Exp(q) time, so
a path runs through epochs of length T ~ Exp(Lambda + q), each ending in a
jump with probability Lambda/(Lambda + q) and in killing otherwise.  For
sigma > 0 (scheme ``"bridge"``) an epoch is sampled exactly: the Brownian
endpoint y' = y + mu T + sigma sqrt(T) N(0, 1), then one uniform against the
Brownian-bridge probability that the path left the strip (0, b), through 0
or through b first, inside the epoch (Kuznetsov, Kyprianou, Pardo & van
Schaik 2011; Glasserman 2003, 6.4).  A crossing of 0 inside an epoch is
creeping, with overshoot and undershoot exactly 0.  The estimates are then
exact up to rounding in the image series, which ``_strip_exits`` runs only
for the epochs whose uniform lies below an upper bound of the exit
probability it returns, and refuses where it would need more than
``_MAX_IMAGES`` images.  No upper barrier is b = inf, in exit mode and in
histograms: the half-line, whose exit probability is the series' k = 0 image
e^{-2yy'/s}, so that image alone decides each epoch.  A histogram sums each
of its bins directly: one bin index per level (``_bin_index``), then
``np.bincount`` of the discounts and of their squares.

Drift-only segments (sigma = 0, scheme ``"drift"``) are crossed exactly,
with e^{-q tau} weights up to a horizon e^{-q t} < 1e-8 and exponential
interarrival times at the jump rate.  Fixed (seed, batch) RNG streams make
every estimate bit-reproducible.

``_scheme`` is the one place that picks the scheme, from sigma: it names it
and gives its epoch rate and epoch function (``_bridge_epoch`` or
``_drift_epoch``).  One batch loop, ``_run_batch``, serves both schemes.
Each epoch draws its length T, then the epoch function moves the live paths
and records the exits inside the epoch, and ``_epoch_end`` adds the jumps
and filters the live set once, after the epoch's exits, jumps and expiries
are known.  Every exit below 0 records its overshoot and undershoot, in exit
mode as in histogram mode.  Bridge epochs keep their clock at 0, as killing
stands in for the discount, so a jump below 0 there counts e^0 = 1 and no
path expires.  The loop carries only the paths still alive, as compact
arrays filtered in ascending path order, so every draw goes to the same path
as in a loop over all paths.  A path without jumps that cannot go down
(sigma = 0, Lambda = 0, b = inf) is retired at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, UnsupportedRegime
from .models import SnLevyModel, check_barriers, check_positive

_HORIZON_EPS = 1e-8
_TAIL = -0.5 * math.log(np.finfo(float).eps)  # image terms beyond e^{-2 _TAIL} are dropped
_EXP_FLOOR = -700.0  # e^{-700} ~ 1e-304; below it np.exp slows down on underflow
_BATCH = 20_000  # fixed so that results are independent of total path count
_MAX_BINS = 10**6  # bins per histogram; a finer window is refused before allocating
_MAX_IMAGES = 1000  # image terms per bridge epoch batch; more are refused (_image_count)


def _mean_stderr(s, s2, n: int):
    """Mean and standard error of n samples from their sum s and sum of
    squares s2 (floats or arrays of them)."""
    mean = s / n
    return mean, np.sqrt(np.maximum(s2 / n - mean**2, 0.0) / n)


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimate with standard error and normal 95% CI; ``scheme`` is
    the sampling scheme: "bridge" or "drift"."""

    value: float
    stderr: float
    ci95: Tuple[float, float]
    n_paths: int
    seed: int
    scheme: str = "bridge"

    @staticmethod
    def from_sums(s: float, s2: float, n: int, seed: int,
                  scheme: str = "bridge") -> "SimulationEstimate":
        mean, se = map(float, _mean_stderr(s, s2, n))
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


def _image(c, a, d):
    """e^{c a d} with c = -2/s: the image e^{-2ad/s}, floored at e^{_EXP_FLOOR}."""
    return np.exp(np.maximum(c * a * d, _EXP_FLOOR))


def _image_count(s, b: float) -> int:
    """K, the last image index of the strip series over variances s: terms
    of index k are at most e^{-2(k-1)^2 b^2/s}, so the sums stop once that
    falls below machine epsilon at the largest s (K = 0 at b = inf).  The
    work grows as K, so a K above ``_MAX_IMAGES`` is refused, as is an s past
    the float range."""
    s_max = float(s.max(initial=0.0))
    k = math.sqrt(_TAIL * s_max) / b
    if not k <= _MAX_IMAGES:
        raise UnsupportedRegime(f"bridge epochs of variance up to {s_max:.3g} on (0, {b:g}) "
                                f"need more than {_MAX_IMAGES} image terms or pass the float range")
    return math.ceil(k)


def _strip_series(y, y_end, s, b: float, n_images: int):
    """(p_down, p_up): probabilities that a Brownian bridge from y to y_end
    with variance s = sigma^2 T leaves (0, b) first through 0, first through
    b, within the epoch.  For 0 <= y <= b the image series, summed over
    k <= n_images (``_image_count``), are

        p_down = sum_{k>=0} e^{-2(kb+y')(kb+y)/s} - sum_{k>=1} e^{-2kb(kb+y'-y)/s}
        p_up   = sum_{k>=1} e^{-2(kb-y')(kb-y)/s} - e^{-2kb(kb-y'+y)/s}

    the first for y' >= 0, the second for y' <= b; an endpoint beyond a
    barrier has left for sure, so there the other side's complement is used.
    At b = inf, n_images = 0 leaves p_down = e^{-2yy'/s} (1 for y' < 0) and
    p_up = 0.  The caller takes n_images over all the epochs it decides, so
    a subset of them is summed as within the whole."""
    c = -2.0 / s
    # every image has a, d >= 0: a sum or product past the float range makes
    # the exponent -inf, which the floor catches
    with np.errstate(over="ignore"):
        lo = np.maximum(y_end, 0.0)  # p_down series holds for y' >= 0
        hi = np.minimum(y_end, b)    # p_up series holds for y' <= b
        p_dn = _image(c, lo, y)
        p_up = np.zeros(y.shape)
        for k in range(1, n_images + 1):
            kb = k * b
            p_dn += _image(c, kb + lo, kb + y) - _image(c, kb, kb + lo - y)
            p_up += _image(c, kb - hi, kb - y) - _image(c, kb, kb - hi + y)
    p_dn = np.where(y_end < 0.0, 1.0 - p_up, p_dn)
    p_up = np.where(y_end > b, 1.0 - p_dn, p_up)
    return np.clip(p_dn, 0.0, 1.0), np.clip(p_up, 0.0, 1.0)


def _strip_exits(y, y_end, s, b: float, u):
    """(down, up): the indices of the epochs with u < p_down, and with
    p_down <= u < p_down + p_up, for the floating-point (p_down, p_up) of
    ``_strip_series`` on the strip (0, b), all y in [0, b].

    The k = 0 image e^{-2yy'/s} comes first, as the series forms it: at
    b = inf it is p_down (1 or more for y' < 0), and no epoch exits up.  On
    a strip the series runs where u lies below a bound of its p_down + p_up:
    with K = ``_image_count(s, b)`` over all the epochs, that image, the
    first up-crossing image e^{-2(b-y')(b-y)/s} as the series forms it, 2K - 1
    times e^{-2b^2/s} at the largest s (no other positive term's exponent
    rounds above its own), and a slack of 16(K + 1) machine epsilons.  An
    endpoint beyond a barrier makes one of the first two images at least
    1 > u, and a NaN bound decides nothing: the series sees those epochs."""
    n_images = _image_count(s, b)
    c = -2.0 / s
    with np.errstate(over="ignore"):
        bound = _image(c, y_end, y)
        if b == math.inf:
            return np.flatnonzero(u < bound), np.empty(0, dtype=np.intp)
        tail = 16 * (n_images + 1) * np.finfo(float).eps
        if n_images:
            tail += (2 * n_images - 1) * _image(-2.0 / s.max(), b, b)
        bound += _image(c, b - y_end, b - y)
    bound += tail
    near = np.flatnonzero(~(u >= bound))
    p_dn, p_up = _strip_series(y[near], y_end[near], s[near], b, n_images)
    u = u[near]
    dn = u < p_dn
    return near[dn], near[~dn & (u < p_dn + p_up)]


def _bridge_epoch(model: SnLevyModel, q: float, b: float):
    """Exact epochs with killing at rate q (sigma > 0): the Brownian endpoint,
    one uniform against the bridge exit probabilities, under which an exit
    counts 1 (a crossing of 0 creeps), and one that keeps a jump against
    killing.  The clock stays at 0: a killed path needs no discount."""
    mu, var, mass = model.mu, model.sigma**2, model.levy_mass
    rate = mass + q

    def epoch(rng, live, pos, t, T, out):
        up, down, over, under = out
        k = live.size
        with np.errstate(over="ignore"):  # an s past the float range is refused
            s = var * T
        end = pos + mu * T + np.sqrt(s) * rng.standard_normal(k)
        u = rng.random(k)
        dn, hit_up = _strip_exits(pos, end, s, b, u)
        crept = live[dn]
        down[crept] = 1.0
        over[crept] = under[crept] = 0.0
        up[live[hit_up]] = 1.0
        jump = rng.random(k) * rate < mass
        jump[dn] = jump[hit_up] = False
        return end, jump, t

    return epoch


def _drift_epoch(model: SnLevyModel, q: float, b: float):
    """sigma = 0: a drift segment, crossed exactly; it reaches b, if at all,
    at t + (b - pos) / mu."""
    mu = model.mu

    def epoch(rng, live, pos, t, T, out):
        end = pos + mu * T
        stay = end < b
        reach = np.flatnonzero(~stay)
        out[0][live[reach]] = np.exp(-q * (t[reach] + (b - pos[reach]) / mu))
        return end, stay, t + T

    return epoch


def _scheme(model: SnLevyModel, q: float, b: float, n_paths: int, seed: int = 0):
    """(name, rate, epoch) of the sampling scheme: its name, the rate of the
    exponential epoch lengths (Lambda + q for bridge epochs, which kill at
    rate q, the Levy mass Lambda otherwise) and its epoch function, None
    where no path can exit.  Rejects a q that is not positive and finite,
    fewer than 1 path, a negative seed (``default_rng`` takes none) and an
    infinite Lambda."""
    check_positive("q", q)
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    mass = model.levy_mass
    if mass == math.inf:
        raise UnsupportedRegime("infinite jump activity: no finite jump rate to simulate at")
    if model.sigma == 0:  # mu > 0: without jumps or an upper barrier no path exits
        return "drift", mass, None if mass == 0 and b == math.inf else _drift_epoch(model, q, b)
    return "bridge", mass + q, _bridge_epoch(model, q, b)


def _epoch_end(rng, sample_jumps, q, live, pos, t, stay, out):
    """Close an epoch at time t for the paths ``live`` at pos, of which the
    mask ``stay`` marks those that did not exit during it: one jump for each
    of these (none without jumps), written in at their positions in
    ascending path order; a path taken below 0 exits with down = e^{-q t},
    one still inside past the horizon expires.  This is the epoch's one
    filter of the live set: (live, pos, t) are compressed once, to the paths
    that stay, did not cross and are within the horizon, and returned."""
    keep = stay & (t <= math.log(1.0 / _HORIZON_EPS) / q)
    n_stay = np.count_nonzero(stay)
    if sample_jumps is not None and n_stay:
        _, down, over, under = out
        jump = np.zeros(live.size)
        jump[stay] = sample_jumps(rng, n_stay)
        after = pos - jump
        gone = np.flatnonzero(stay & (after < 0.0))
        exits = live[gone]
        down[exits] = np.exp(-q * t[gone])
        over[exits] = -after[gone]
        under[exits] = pos[gone]
        keep[gone] = False
        pos = after
    kept = np.flatnonzero(keep)
    return live[kept], pos[kept], t[kept]


def _run_batch(model: SnLevyModel, q: float, x: float, b: float, n: int,
               rng: np.random.Generator):
    """Advance n paths from x until exit or horizon.

    Returns (up_discounts, down_discounts, overshoot, undershoot) arrays of
    length n; non-exiting entries are 0 discounts / NaN levels, and every
    exit below 0 records its levels.  Each epoch draws its length T at the
    rate of the scheme that ``_scheme`` picks (1 at rate 0), moves the live
    paths by the scheme's epoch function and closes through ``_epoch_end``.
    """
    _, rate, epoch = _scheme(model, q, b, n)
    out = np.zeros(n), np.zeros(n), np.full(n, np.nan), np.full(n, np.nan)
    if x >= b:  # every path starts at or above b
        out[0][:] = 1.0
        return out
    if epoch is None:
        return out
    sample_jumps = model.sample_jumps if model.levy_mass > 0 else None
    live, pos, t = np.arange(n), np.full(n, float(x)), np.zeros(n)
    while live.size:
        T = rng.exponential(1.0 / rate, size=live.size) if rate > 0 else np.ones(live.size)
        end, stay, t = epoch(rng, live, pos, t, T, out)
        live, pos, t = _epoch_end(rng, sample_jumps, q, live, end, t, stay, out)
    return out


def _batches(model: SnLevyModel, q: float, x: float, b: float, n_paths: int, seed: int):
    """The ``_run_batch`` results for n_paths paths in batches of ``_BATCH``,
    batch k on its own stream ``default_rng([seed, k])``."""
    for k, done in enumerate(range(0, n_paths, _BATCH)):
        rng = np.random.default_rng([seed, k])
        yield _run_batch(model, q, x, b, min(_BATCH, n_paths - done), rng)


def simulate_two_sided_exit(
    model: SnLevyModel,
    q: float,
    x: float,
    b: float,
    n_paths: int,
    seed: int,
) -> Tuple[SimulationEstimate, SimulationEstimate]:
    """(up, down) estimates of the discounted two-sided exit probabilities."""
    scheme = _scheme(model, q, b, n_paths, seed)[0]
    check_barriers(x, b)
    su = su2 = sd = sd2 = 0.0
    for u, d, _, _ in _batches(model, q, x, b, n_paths, seed):
        su += u.sum()
        su2 += (u**2).sum()
        sd += d.sum()
        sd2 += (d**2).sum()
    return (
        SimulationEstimate.from_sums(su, su2, n_paths, seed, scheme),
        SimulationEstimate.from_sums(sd, sd2, n_paths, seed, scheme),
    )


def _bin_index(levels, edges):
    """The bin of each level among ``edges``, ascending and equally spaced
    up to rounding, as ``np.histogram`` bins it: e_i <= level < e_{i+1},
    the last bin closed; a level outside [e_0, e_n] gets the index n, the
    number of bins.  As NumPy's equal-width path does, the bin width gives
    a guess, which one comparison against the edges on each side corrects
    (the guess is off by at most one bin); no sort, no binary search."""
    n = edges.size - 1
    if n == 0:  # a single edge (a bin at least twice the window's width) makes no bin
        return np.zeros(levels.size, dtype=np.intp)
    i = np.clip((levels - edges[0]) * (n / (edges[-1] - edges[0])), 0, n - 1).astype(np.intp)
    i -= levels < edges[i]
    i += (levels >= edges[i + 1]) & (i < n - 1)
    return np.where((levels >= edges[0]) & (levels <= edges[-1]), i, n)


def simulate_overshoot_undershoot(
    model: SnLevyModel,
    q: float,
    x: float,
    window_width: float,
    n_paths: int,
    seed: int,
) -> Tuple[HistogramEstimate, HistogramEstimate]:
    """Binned discounted overshoot/undershoot laws at the first down-crossing.

    Returns (overshoot_hist, undershoot_hist); densities are per unit level so
    they compare directly against the closed-form densities at bin centers.
    Creeping paths (sigma > 0) land at overshoot 0 and undershoot 0, in the
    first bin of each histogram.  The overshoot bins cover the window [0, 10]
    and the undershoot bins [0, 2x], at most ``_MAX_BINS`` each, with edges
    0, w, 2w, ... for the width w: the last bin ends within w/2 of its
    window's end, so a window no wider than w/2 has no bins (w = 15 at x = 2
    gives the one overshoot bin [0, 15] and no undershoot bin), and a width
    that leaves both histograms without a bin, w >= 2 max(10, 2x), is
    refused.
    """
    scheme = _scheme(model, q, math.inf, n_paths, seed)[0]
    check_positive("x", x)
    check_positive("window_width", window_width)
    if max(10.0, 2.0 * x) / window_width > _MAX_BINS:
        raise DomainError(f"bin width {window_width} at x = {x} gives more than "
                          f"{_MAX_BINS} bins per histogram")
    edges = (np.arange(0.0, 10.0 + window_width / 2, window_width),
             np.arange(0.0, 2.0 * x + window_width / 2, window_width))
    if max(e.size for e in edges) < 2:
        raise DomainError(f"bin width {window_width} at x = {x} leaves both histograms "
                          "without a bin")
    sums = [np.zeros((2, e.size - 1)) for e in edges]  # sum of d, sum of d^2 per bin
    for _, d, over, under in _batches(model, q, x, math.inf, n_paths, seed):
        exits = d > 0
        d = d[exits]
        d2 = d**2
        for s, levels, e in zip(sums, (over[exits], under[exits]), edges):
            i = _bin_index(levels, e)
            s[0] += np.bincount(i, d, e.size)[:-1]
            s[1] += np.bincount(i, d2, e.size)[:-1]

    def finish(s, edges):
        mean, se = _mean_stderr(s[0], s[1], n_paths)
        return HistogramEstimate(
            edges=edges,
            density=mean / window_width,
            stderr=se / window_width,
            n_paths=n_paths,
            seed=seed,
            scheme=scheme,
        )

    return finish(sums[0], edges[0]), finish(sums[1], edges[1])
