"""Negative Wiener-Hopf factor and the running-minimum law at an exponential time.

The factor is the rational function

    phi_q_minus(s) = prod_j (s + eta_j)/eta_j * prod_i xi_i / (s + xi_i),

whose partial-fraction expansion gives the density of the running minimum.
Residues at the (simple) roots are exact products, returned as one array
aligned with the roots of the ``RootDecomposition``; ``scale.assemble`` turns
roots and residues into the exponential sum of the scale function, and every
such sum is evaluated on grids by one tiled kernel, ``exp_sum``.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .models import pole_offsets
from .roots import RootDecomposition, check_clusters

# Relative size of an imaginary part that counts as rounding, wherever a sum
# over conjugate root pairs is taken as real
_IMAG_TOL = 1e-10
# Elements per temporary in the tiled m x m and grid x m products (bounds peak memory)
_TILE = 2**14


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
    return out if out.ndim else out.item()


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of consecutive rows covering at most ``_TILE`` elements each."""
    step = max(1, _TILE // max(1, n_cols))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def product_residues(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """A_i = prod_j (eta_j - xi_i)/eta_j * prod_{l != i} xi_l/(xi_l - xi_i), the
    residues of phi_q_minus at simple roots xi (real or complex; as many as the
    poles eta, or one more).  Each pole factor is multiplied with the root
    factor of the same index, so that interlacing keeps the running product
    from overflowing or underflowing; rows go in tiles to bound memory."""
    xi, eta = np.asarray(xi), np.asarray(eta)
    A = np.empty(xi.size, dtype=np.result_type(xi, eta))
    for rows in _row_blocks(xi.size, xi.size):
        x = xi[rows, None]
        ratio = xi - x
        ratio[np.arange(x.size), np.arange(rows.start, rows.stop)] = x[:, 0]  # l = i: 1
        np.divide(xi, ratio, out=ratio)
        ratio[:, : eta.size] *= (eta - x) / eta
        A[rows] = ratio.prod(axis=1)
    return A


def points(x, above=-np.inf, strict=False) -> np.ndarray:
    """x as a 1-d float array, a float being one point: the one domain check
    of every evaluator.  Raises DomainError for a NaN point and for a point
    below ``above`` (at or below it with ``strict``)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ok = xs > above if strict else xs >= above  # False at NaN
    if not ok.all():
        bad = float(xs[~ok][0])
        raise DomainError(f"point {bad} is not {'>' if strict else '>='} {above}")
    return xs


def like(x, vals: np.ndarray):
    """vals as a float when x is a scalar, else as the array."""
    return float(vals[0]) if np.ndim(x) == 0 else vals


def exp_sum(rates, weights, xs: np.ndarray, expfn=np.exp) -> np.ndarray:
    """sum_j weights_j expfn(-rates_j x) at each point of the 1-d grid xs, in
    row tiles; complex rates or weights give a complex result."""
    minus, weights = -np.asarray(rates), np.asarray(weights)
    out = np.empty(xs.shape, dtype=np.result_type(minus, weights, xs))
    for rows in _row_blocks(xs.size, minus.size):
        tile = np.multiply.outer(xs[rows], minus)
        out[rows] = expfn(tile, out=tile) @ weights
    return out


def partial_fraction_coefficients(decomp: RootDecomposition) -> np.ndarray:
    """Residues A_i of phi_q_minus at the simple roots ``decomp.xi``, as
    closed-form products (complex where the roots are); repeated or clustered
    roots raise."""
    check_clusters(decomp.xi)
    return product_residues(decomp.xi, decomp.poles)
