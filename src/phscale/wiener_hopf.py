"""Negative Wiener-Hopf factor and the running-minimum law at an exponential time.

The factor is the rational function

    phi_q_minus(s) = prod_j (s + eta_j)/eta_j * prod_i xi_i / (s + xi_i),

whose partial-fraction expansion gives the density of the running minimum.
Residues at the (simple) roots are exact products, returned as one array
aligned with the roots of the ``RootDecomposition``; ``scale.assemble`` turns
roots and residues into the exponential sum of the scale function, and every
such sum is evaluated on grids by one tiled kernel, ``exp_sum``, which
reads every weight vector of a call off the same exponential tile.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .models import like, pole_offsets
from .roots import RootDecomposition, check_clusters

# Relative size of an imaginary part that counts as rounding, wherever a sum
# over conjugate root pairs is taken as real
_IMAG_TOL = 1e-10
# Elements per temporary in the tiled m x m and grid x m products (bounds peak memory)
_TILE = 2**14
# e^t below e^{-708} ~ 3e-308, next to the subnormal range, is taken as 0 in a
# tile: exp of such t and products with its subnormal values are slow paths
_EXP_FLOOR = -708.0
_LN2 = math.log(2.0)


def wh_factor_minus(decomp: RootDecomposition, s):
    """phi_q_minus(s) for Re(s) > 0 (and by continuation off the root set), at a
    scalar or elementwise on an array; real where s and the value are real.
    Raises PoleEvaluation where s is on a pole -xi_i (``pole_offsets``)."""
    s = np.asarray(s)
    xi, eta = decomp.xi, decomp.poles
    out = np.prod((s[..., None] + eta) / eta, axis=-1) * np.prod(xi / pole_offsets(s, xi), axis=-1)
    if np.all(np.imag(s) == 0) and np.all(
        np.abs(np.imag(out)) < _IMAG_TOL * (1.0 + np.abs(np.real(out)))
    ):
        out = np.real(out)
    return like(s, out)


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of consecutive rows covering at most ``_TILE`` elements each."""
    step = max(1, _TILE // max(1, n_cols))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def product_residues(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """A_i = prod_j (eta_j - xi_i)/eta_j * prod_{l != i} xi_l/(xi_l - xi_i), the
    residues of phi_q_minus at simple roots xi (real or complex; as many as the
    poles eta, or one more).  It is formed as prod_j xi_j/eta_j times
    prod_l r_li, with r_li = (eta_l - xi_i)/(xi_l - xi_i) for a pole l != i,
    (eta_i - xi_i)/xi_i at l = i and xi_n/(xi_n - xi_i) for a root xi_n
    beyond the poles: each pole pairs with the root of its index, so that
    interlacing keeps the running product from overflowing or underflowing.
    The factors go in tiles of rows l, each reduced over l into all of A."""
    xi, eta = np.asarray(xi), np.asarray(eta)
    m, n = xi.size, eta.size
    A = np.full(m, np.prod(xi[:n] / eta), dtype=np.result_type(xi, eta))
    # The rows (eta_l, 1) and (xi_l, 1) times the columns (1, -xi_i) give
    # eta_l - xi_i and xi_l - xi_i: both products are exact, so each cell is
    # the one rounded difference, at a fraction of the cost of a broadcast
    # subtraction.  The root beyond the poles has the row (xi_n, 0).
    left = np.ones((2, m, 2), dtype=A.dtype)
    left[0, :n, 0], left[0, n:, 0], left[0, n:, 1] = eta, xi[n:], 0.0
    left[1, :, 0] = xi
    right = np.ones((2, m), dtype=A.dtype)
    np.negative(xi, out=right[1])
    for ls in _row_blocks(m, m):
        k = ls.stop - ls.start
        tile = left[:, ls].reshape(2 * k, 2) @ right
        num, den = tile[:k], tile[k:]
        den[np.arange(k), np.arange(ls.start, ls.stop)] = xi[ls]  # l = i
        A *= np.divide(num, den, out=num).prod(axis=0)
    return A


def points(x, above=-np.inf, strict=False, finite=False) -> np.ndarray:
    """x as a 1-d float array, a float being one point: the one domain check
    of every evaluator.  Raises DomainError for an array of more than one
    dimension, for a NaN point, for a point below ``above`` (at or below it
    with ``strict``) and, with ``finite``, for an infinite point."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim > 1:
        raise DomainError(f"points must be a float or a 1-d array, got shape {xs.shape}")
    ok = xs > above if strict else xs >= above  # False at NaN
    if not ok.all():
        bad = float(xs[~ok][0])
        raise DomainError(f"point {bad} is not {'>' if strict else '>='} {above}")
    if finite and np.isinf(xs).any():
        raise DomainError("points must be finite")
    return xs


def exp_sum(rates, weights, xs: np.ndarray, minus_one=0) -> np.ndarray:
    """sum_j weights_j e^{-rates_j x} at each point x >= 0 of the 1-d grid xs,
    or sum_j weights_j (e^{-rates_j x} - 1) with ``minus_one``.  A weight
    matrix gives one column per weight vector, its first ``minus_one``
    columns of the second kind, and every column is read off one tile of
    exponentials per block of rows; complex rates or weights give a complex
    result.

    The second kind alone reads expm1(-rates x).  Otherwise the tile is
    E = e^{-rates x}, 0 where the exponent is below ``_EXP_FLOOR`` (exp is not
    called there), and the second kind reads E - 1, except in the columns
    where |rates_j x| < ln 2 at the smallest x > 0 of the block (a prefix for
    ascending rates), which take expm1 against cancellation."""
    minus, weights = -np.asarray(rates), np.asarray(weights)
    cols = weights if weights.ndim == 2 else weights[:, None]
    k_m = int(minus_one)
    out = np.empty((xs.size, cols.shape[1]), dtype=np.result_type(minus, cols, xs))
    if 0 < k_m < cols.shape[1]:
        # |rates_j| >= reach[j] for all later j too: from searchsorted(reach,
        # ln 2 / x) on, every column has |rates x| >= ln 2
        reach = np.minimum.accumulate(np.abs(minus[::-1]))[::-1]
    for rows in _row_blocks(xs.size, minus.size):
        x = xs[rows]
        # x * minus, one rounding a cell; a product past the float range is
        # -inf (Re rates > 0), whose exponential the floor below takes as 0.
        # A complex cell past the float range (x = inf too) may hold NaN
        # parts, so every complex cell whose real part x Re(-rates) is below
        # the floor takes the exponent's limit -inf: e^t = 0, expm1(t) = -1
        with np.errstate(over="ignore", invalid="ignore"):
            tile = np.dot(x[:, None], minus[None, :])
            if np.iscomplexobj(tile):
                np.putmask(tile, ~(np.multiply.outer(x, minus.real) > _EXP_FLOOR), -np.inf)
        if k_m == cols.shape[1]:
            out[rows] = np.expm1(tile, out=tile) @ cols
            continue
        if k_m:  # e^0 - 1 = 0 is exact: x = 0 needs no expm1
            with np.errstate(over="ignore"):  # ln 2 / x = inf at a subnormal x: all take expm1
                j = np.searchsorted(reach, _LN2 / np.min(x, where=x > 0, initial=np.inf))
            head = np.expm1(tile[:, :j])
        if tile.real.min(initial=0.0) > _EXP_FLOOR:
            E = np.exp(tile, out=tile)
        else:
            keep = tile.real > _EXP_FLOOR
            E = np.exp(tile, out=tile, where=keep)
            np.putmask(E, ~keep, 0.0)  # not a product with keep: -inf * 0 is NaN at x = inf
        out[rows, k_m:] = E @ cols[:, k_m:]
        if k_m:
            M = np.subtract(E, 1.0, out=E)
            M[:, :j] = head
            out[rows, :k_m] = M @ cols[:, :k_m]
    return out if weights.ndim == 2 else out[:, 0]


def partial_fraction_coefficients(decomp: RootDecomposition) -> np.ndarray:
    """Residues A_i of phi_q_minus at the simple roots ``decomp.xi``, as
    closed-form products (complex where the roots are); repeated or clustered
    roots raise."""
    check_clusters(decomp.xi)
    return product_residues(decomp.xi, decomp.poles)
