"""Negative Wiener-Hopf factor and the running-minimum law at an exponential time.

The factor is the rational function

    phi_q_minus(s) = prod_j (s + eta_j)/eta_j * prod_i xi_i / (s + xi_i),

whose partial-fraction expansion gives the density of the running minimum.
Residues at the (simple) roots are exact products.  The same roots and
residues give the exponential sums of the scale functions, evaluated on
grids by one tiled kernel, ``exp_sum``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleEvaluation, RepeatedRootsDetected
from .roots import RootDecomposition, check_clusters

_IMAG_TOL = 1e-10
# Elements per temporary in the tiled m x m and grid x m products (bounds peak memory)
_TILE = 2**14


@dataclass(frozen=True, eq=False)
class WhCoefficients:
    """Partial-fraction data of phi_q_minus at simple roots.

    ``xi`` holds the roots and ``A`` the residue A_i at each; ``varrho`` is
    sum_i A_i xi_i.
    """

    xi: np.ndarray
    A: np.ndarray
    varrho: float
    zeta: float
    q: float
    case: str


def wh_factor_minus(decomp: RootDecomposition, s):
    """phi_q_minus(s) for Re(s) > 0 (and by continuation off the root set), at a
    scalar or elementwise on an array; real where s and the value are real."""
    s = np.asarray(s)
    sj = s[..., None]
    xi, eta = decomp.xi, decomp.poles
    if np.any(np.abs(sj + xi) < 1e-12 * (1.0 + np.abs(sj))):
        raise PoleEvaluation(f"s={s} at a pole of phi_q_minus")
    out = np.prod((sj + eta) / eta, axis=-1) * np.prod(xi / (sj + xi), axis=-1)
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


def points(x) -> np.ndarray:
    """x as a 1-d float array; a float is one point."""
    return np.atleast_1d(np.asarray(x, dtype=float))


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


def partial_fraction_coefficients(decomp: RootDecomposition) -> WhCoefficients:
    """Partial-fraction coefficients of phi_q_minus at simple roots, as
    closed-form residue products; repeated or clustered roots raise."""
    xi = decomp.xi
    check_clusters(xi)
    A = product_residues(xi, decomp.poles)
    varrho = complex(A @ xi)
    if abs(varrho.imag) > _IMAG_TOL * (1.0 + abs(varrho.real)):
        raise RepeatedRootsDetected(f"varrho has imaginary part {varrho.imag}")
    return WhCoefficients(
        xi=xi,
        A=A,
        varrho=varrho.real,
        zeta=decomp.zeta,
        q=decomp.q,
        case=decomp.case,
    )
