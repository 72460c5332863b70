"""Negative Wiener-Hopf factor and the running-minimum law at an exponential time.

The factor is the rational function

    phi_q_minus(s) = prod_j (s + eta_j)/eta_j * prod_i xi_i / (s + xi_i),

whose partial-fraction expansion gives the density of the running minimum.
Simple-root residues are computed as exact products; repeated roots (only
reachable with caller-supplied multiplicity data) go through polynomial
quotient differentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PoleEvaluation, RepeatedRootsDetected
from .models import CASE2
from .roots import RootDecomposition, check_clusters

_IMAG_TOL = 1e-10
# Elements per temporary in the tiled m x m and grid x m products (bounds peak memory)
_TILE = 2**14


@dataclass(frozen=True)
class WhCoefficients:
    """Partial-fraction data of phi_q_minus.

    ``entries`` holds (xi_i, k, A_i^(k)) for k = 1..multiplicity(i);
    ``varrho`` is sum_i A_i^(1) xi_i and ``atom_mass`` the point mass of the
    running minimum at 0 (compound Poisson case only, else 0).
    """

    entries: Tuple[Tuple[complex, int, complex], ...]
    varrho: float
    atom_mass: float
    zeta: float
    q: float
    case: str

    def first_order(self) -> List[Tuple[complex, complex]]:
        """(xi_i, A_i^(1)) pairs."""
        return [(xi, A) for xi, k, A in self.entries if k == 1]


def wh_factor_minus(decomp: RootDecomposition, s: complex) -> complex:
    """phi_q_minus(s) for Re(s) > 0 (and by continuation off the root set)."""
    out = 1.0 + 0.0j
    for eta in decomp.poles:
        out *= (s + eta) / eta
    for xi, mult in decomp.neg_roots:
        if abs(s + xi) < 1e-12 * (1.0 + abs(s)):
            raise PoleEvaluation(f"s={s} at a pole of phi_q_minus")
        out *= (xi / (s + xi)) ** mult
    if abs(out.imag) < _IMAG_TOL * (1.0 + abs(out.real)) and (
        not isinstance(s, complex) or s.imag == 0
    ):
        return float(out.real)
    return out


def _atom_mass(decomp: RootDecomposition) -> float:
    if decomp.case != CASE2:
        return 0.0
    num = np.prod([complex(xi) ** m for xi, m in decomp.neg_roots])
    den = np.prod([complex(eta) for eta in decomp.poles])
    return float((num / den).real)


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


def _poly_from_roots(roots_mults) -> np.ndarray:
    p = np.array([1.0 + 0.0j])
    for r, m in roots_mults:
        for _ in range(m):
            p = npoly.polymul(p, np.array([r, 1.0], dtype=complex))
    return p


def _rational_derivative(num: np.ndarray, den: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    dn = npoly.polymul(npoly.polyder(num), den)
    nd = npoly.polymul(num, npoly.polyder(den))
    return npoly.polysub(dn, nd), npoly.polymul(den, den)


def _multiplicity_coefficients(decomp: RootDecomposition) -> List[Tuple[complex, int, complex]]:
    """A_i^(k) by differentiating phi(s) (s+xi_i)^{m_i} as a polynomial quotient."""
    scale = np.prod([complex(xi) ** m for xi, m in decomp.neg_roots]) / np.prod(
        [complex(eta) for eta in decomp.poles]
    )
    base_num = scale * _poly_from_roots([(eta, 1) for eta in decomp.poles])
    entries: List[Tuple[complex, int, complex]] = []
    for xi, mi in decomp.neg_roots:
        den_i = _poly_from_roots([(o, m) for o, m in decomp.neg_roots if o != xi])
        for k in range(1, mi + 1):
            num, den = base_num, den_i
            for _ in range(mi - k):
                num, den = _rational_derivative(num, den)
            val = npoly.polyval(-xi, num) / npoly.polyval(-xi, den)
            val /= math.factorial(mi - k) * complex(xi) ** k
            entries.append((xi, k, val))
    return entries


def partial_fraction_coefficients(decomp: RootDecomposition) -> WhCoefficients:
    """Partial-fraction coefficients of phi_q_minus.

    Simple roots use closed-form residue products; multiplicities (from a
    caller-built decomposition) use the quotient-differentiation path.
    """
    if decomp.all_simple:
        xis = decomp.xis
        check_clusters(xis)  # clustered roots masquerading as simple
        A = product_residues(xis, decomp.poles)
        entries = [(xi, 1, complex(a)) for xi, a in zip(xis, A)]
    else:
        entries = _multiplicity_coefficients(decomp)
    varrho = sum(A * xi for xi, k, A in entries if k == 1)
    if abs(varrho.imag) > _IMAG_TOL * (1.0 + abs(varrho.real)):
        raise RepeatedRootsDetected(f"varrho has imaginary part {varrho.imag}")
    return WhCoefficients(
        entries=tuple(entries),
        varrho=float(varrho.real),
        atom_mass=_atom_mass(decomp),
        zeta=decomp.zeta,
        q=decomp.q,
        case=decomp.case,
    )
