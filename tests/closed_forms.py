"""Closed forms that only the tests use as references: jump-law densities,
means and phase counts, the phase-type form of a hyperexponential law, a
Coxian law with a non-diagonal generator, the
beta-family and tempered-stable Levy densities; the tail-measure double
integral rho; the running-minimum atom, density and
Laplace form rebuilt from Wiener-Hopf partial fractions; partial fractions at repeated roots by
quotient differentiation; the cleared Cramer-Lundberg polynomial of
hyperexponential jumps; a 50-digit phase-type Laplace exponent with random
Coxian laws to try it on, and W and Z as its residue sums at any precision;
a scalar polynomial-times-exponential sum with loop evaluators of a
scale function built on it; the Brownian-bridge exit probabilities of the
oracle's image series; and the paper's Monte Carlo grid, whose jumps
come from ``rng.choice`` (the reference for the oracle's sampler), with its
batching and its first-order continuity correction."""
import math
import random
from types import SimpleNamespace
from typing import List, Sequence, Tuple

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from phscale import mc
from phscale.errors import DomainError, NumericalFailure, RepeatedRootsDetected
from phscale.fluctuation import IntervalPair, down_exit, up_exit
from phscale.mc import SimulationEstimate
from phscale.meromorphic import BetaFamilyParams
from phscale.models import HyperExpDist, PhaseTypeRepr, SnLevyModel
from phscale.roots import RootDecomposition, find_roots
from phscale.wiener_hopf import partial_fraction_coefficients

_IMAG_TOL = 1e-10


class ExponentAtPole(NumericalFailure):
    """Closed-form exponential integral hit a vanishing denominator."""


def n_phases(law) -> int:
    """Number of phases of a HyperExpDist or a PhaseTypeRepr."""
    return len(law.p) if isinstance(law, HyperExpDist) else len(law.alpha)


def as_phase_type(law: HyperExpDist) -> PhaseTypeRepr:
    """The hyperexponential law as a phase-type law with diagonal generator."""
    return PhaseTypeRepr(alpha=law.p, T=tuple(map(tuple, -np.diag(law.eta))))


# a three-phase Coxian law with a second start phase; its T is not diagonal
COXIAN = PhaseTypeRepr(alpha=(0.7, 0.3, 0.0),
                       T=((-3.0, 1.0, 0.5), (0.0, -2.0, 1.5), (0.0, 0.0, -1.0)))


def law_density(law, z: float) -> float:
    """Density of a HyperExpDist (sum_j p_j eta_j e^{-eta_j z}) or a
    PhaseTypeRepr (alpha e^{Tz} t) jump law at z; 0 for z < 0."""
    if z < 0:
        return 0.0
    if isinstance(law, HyperExpDist):
        p, eta = np.asarray(law.p), np.asarray(law.eta)
        return float(np.sum(p * eta * np.exp(-eta * z)))
    from scipy.linalg import expm

    T = np.asarray(law.T)
    return float(np.asarray(law.alpha) @ expm(T * z) @ -T.sum(axis=1))


def law_mean(law) -> float:
    """Mean of a HyperExpDist (sum_j p_j/eta_j) or a PhaseTypeRepr (-alpha T^{-1} 1)."""
    if isinstance(law, HyperExpDist):
        return float(np.sum(np.asarray(law.p) / np.asarray(law.eta)))
    T = np.asarray(law.T)
    return float(-np.asarray(law.alpha) @ np.linalg.solve(T, np.ones(n_phases(law))))


def jump_density(model: SnLevyModel, z: float) -> float:
    """Jump-size density of a model; a model without jumps has none."""
    if model.lam == 0:
        raise DomainError("model has no jump component")
    return law_density(model.jumps, z)


def beta_levy_density(params: BetaFamilyParams, x: float) -> float:
    """c e^{alpha beta x} / (1 - e^{beta x})^lam for x < 0."""
    if x >= 0:
        return 0.0
    a, b = params.alpha_b, params.beta_b
    return params.c * math.exp(a * b * x) / (1.0 - math.exp(b * x)) ** params.lam


def cgmy_levy_density(tilde_c: float, tilde_alpha: float, lam: float, x: float) -> float:
    """Spectrally negative tempered-stable density c~ e^{alpha~ x}/|x|^lam, x < 0."""
    if x >= 0:
        return 0.0
    return tilde_c * math.exp(tilde_alpha * x) / abs(x) ** lam


def atom_mass(decomp: RootDecomposition) -> float:
    """Point mass of the running minimum at 0: prod_i xi_i/eta_i in the
    compound Poisson case (sigma = 0: as many roots as poles), else 0."""
    if decomp.xi.size != decomp.poles.size:
        return 0.0
    # one ratio per root-pole pair: the separate products overflow at m ~ 170
    return float(np.real(np.prod(decomp.xi / decomp.poles)))


def _edecay(c: float, x: float) -> float:
    """exp(-c * x) with the convention exp(-c * inf) = 0 for c > 0."""
    if math.isinf(x):
        if c > 0:
            return 0.0
        raise ExponentAtPole("exp(-c*inf) with c <= 0")
    return math.exp(-c * x)


def _window(d: float, lo: float, hi: float) -> float:
    """(e^{-d*lo} - e^{-d*hi}) / d with the removable singularity at d = 0
    handled via expm1; ``hi`` may be infinite when d > 0."""
    if math.isinf(hi):
        if d > 0:
            return math.exp(-d * lo) / d
        raise ExponentAtPole("divergent window integral: d <= 0 with hi = inf")
    delta = hi - lo
    if d == 0.0:
        return delta
    if abs(d * delta) < 0.5:
        return math.exp(-d * lo) * (-math.expm1(-d * delta)) / d
    return (math.exp(-d * lo) - math.exp(-d * hi)) / d


def rho(K: float, pair: IntervalPair, jumps: HyperExpDist, lam: float) -> float:
    """Closed form of the tail-measure double integral over the window pair."""
    total = 0.0
    for pj, ej in zip(jumps.p, jumps.eta):
        total += (
            lam
            * pj
            * (_edecay(ej, pair.a_lo) - _edecay(ej, pair.a_hi))
            * _window(ej - K, pair.b_lo, pair.b_hi)
        )
    return total


def simple_coefficients(decomp: RootDecomposition) -> SimpleNamespace:
    """The package's residues at simple roots, laid out as
    ``multiplicity_coefficients``: ``entries`` (xi_i, 1, A_i)."""
    A = partial_fraction_coefficients(decomp)
    return SimpleNamespace(entries=tuple(zip(decomp.xi, [1] * A.size, A)))


def running_min_density(coeffs, x: float) -> float:
    """Density of -(running minimum at an exponential q-time) at x > 0."""
    total = 0.0 + 0.0j
    for xi, k, A in coeffs.entries:
        total += A * xi * (xi * x) ** (k - 1) / math.factorial(k - 1) * np.exp(-xi * x)
    if abs(total.imag) > _IMAG_TOL * (1.0 + abs(total.real)):
        raise RepeatedRootsDetected(f"density imaginary part {total.imag} at x={x}")
    return float(total.real)


def reconstruct_factor(coeffs, atom: float, s: complex) -> complex:
    """phi_q_minus(s) rebuilt from the atom and the partial fractions (Laplace form)."""
    out: complex = atom
    for xi, k, A in coeffs.entries:
        out += A * (xi / (s + xi)) ** k
    if isinstance(out, complex) and abs(out.imag) < _IMAG_TOL * (1 + abs(out.real)):
        return float(out.real)
    return out


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
    """A_i^(k) by differentiating phi(s) (s+xi_i)^{m_i} as a polynomial quotient,
    with m_i the number of times xi_i repeats in ``decomp.xi``."""
    neg_roots = list(zip(*np.unique(decomp.xi, return_counts=True)))
    scale = np.prod([complex(xi) ** m for xi, m in neg_roots]) / np.prod(
        [complex(eta) for eta in decomp.poles]
    )
    base_num = scale * _poly_from_roots([(eta, 1) for eta in decomp.poles])
    entries: List[Tuple[complex, int, complex]] = []
    for xi, mi in neg_roots:
        den_i = _poly_from_roots([(o, m) for o, m in neg_roots if o != xi])
        for k in range(1, mi + 1):
            num, den = base_num, den_i
            for _ in range(mi - k):
                num, den = _rational_derivative(num, den)
            val = npoly.polyval(-xi, num) / npoly.polyval(-xi, den)
            val /= math.factorial(mi - k) * complex(xi) ** k
            entries.append((xi, k, val))
    return entries


def multiplicity_coefficients(decomp: RootDecomposition) -> SimpleNamespace:
    """Partial-fraction coefficients of phi_q_minus for a decomposition with
    repeated roots (the package accepts simple roots only): ``entries``
    (xi, k, A^(k))."""
    return SimpleNamespace(entries=tuple(_multiplicity_coefficients(decomp)))


def cramer_lundberg_polynomial(model: SnLevyModel, q: float) -> np.ndarray:
    """Ascending coefficients of P(s) = (mu s + sigma^2 s^2/2 - q - lam (1 - sum p))
    prod_k (s + eta_k) - lam s sum_j p_j prod_{k != j} (s + eta_k) for
    hyperexponential jumps, from exact products; P vanishes at zeta and at -xi_i."""
    p, eta, lam = np.asarray(model.jumps.p), np.asarray(model.jumps.eta), model.lam
    drift = [-(q + lam * (1.0 - p.sum())), model.mu, 0.5 * model.sigma**2]
    P = npoly.polymul(drift, npoly.polyfromroots(-eta))
    for j in range(eta.size):
        rest = npoly.polyfromroots(-np.delete(eta, j))
        P = npoly.polysub(P, lam * p[j] * npoly.polymul([0.0, 1.0], rest))
    return np.trim_zeros(P, "b")


def coxian_laws(n: int, seed: int) -> List[PhaseTypeRepr]:
    """n three-phase Coxian laws with random rates in [0.5, 6] and onward
    probabilities in [0.3, 0.9], drawn as the benchmark draws its models."""
    rng, laws = random.Random(seed), []
    for _ in range(n):
        r = sorted((rng.uniform(0.5, 6.0) for _ in range(3)), reverse=True)
        go1, go2 = rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9)
        T = ((-r[0], go1 * r[0], 0.0), (0.0, -r[1], go2 * r[1]), (0.0, 0.0, -r[2]))
        laws.append(PhaseTypeRepr(alpha=(1.0, 0.0, 0.0), T=T))
    return laws


def mp_ph_psi(model: SnLevyModel):
    """(psi, psi') of a phase-type model in mpmath at the working precision,
    psi(s) = s (mu + sigma^2 s/2 - lam alpha (sI-T)^{-1} 1).  Through
    s (sI-T)^{-1} 1 = 1 - (sI-T)^{-1} t it is the textbook form
    mu s + sigma^2 s^2/2 + lam (alpha (sI-T)^{-1} t - sum(alpha)), with Levy
    mass lam * sum(alpha) for weights summing to 1 only within the simplex
    tolerance, so psi(0) = 0; but near s = 0 that form cancels about
    -log10|s| digits, and Newton steps on it stall above the working
    precision at a root ~1e-20."""
    mu, sigma, lam = (mpmath.mpf(v) for v in (model.mu, model.sigma, model.lam))
    T = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in model.jumps.T])
    m = T.rows
    t = -T * mpmath.matrix([1] * m)
    alpha = mpmath.matrix([[mpmath.mpf(v) for v in model.jumps.alpha]])

    def psi(s):
        y = mpmath.lu_solve(s * mpmath.eye(m) - T, mpmath.matrix([1] * m))
        return s * (mu + sigma**2 * s / 2 - lam * (alpha * y)[0])

    def dpsi(s):
        A = s * mpmath.eye(m) - T
        return mu + sigma**2 * s - lam * (alpha * mpmath.lu_solve(A, mpmath.lu_solve(A, t)))[0]

    return psi, dpsi


def mp_hyperexp_psi(model: SnLevyModel):
    """(psi, psi') of a hyperexponential model in mpmath at the working
    precision, as s (d + s (sigma^2/2 + lam sum_j p_j / (eta_j (s + eta_j))))
    with the mean drift d = mu - lam sum_j p_j / eta_j formed once: no term
    cancels as s -> 0, so tiny roots refine to full relative precision."""
    mu, sigma, lam = (mpmath.mpf(v) for v in (model.mu, model.sigma, model.lam))
    laws = [(mpmath.mpf(p), mpmath.mpf(e)) for p, e in zip(model.jumps.p, model.jumps.eta)]
    drift = mu - lam * mpmath.fsum(p / e for p, e in laws)

    def psi(s):
        jumps = mpmath.fsum(p / (e * (s + e)) for p, e in laws)
        return s * (drift + s * (sigma**2 / 2 + lam * jumps))

    def dpsi(s):
        jumps = mpmath.fsum(p * (s + 2 * e) / (e * (s + e) ** 2) for p, e in laws)
        return drift + s * (sigma**2 + lam * jumps)

    return psi, dpsi


def mp_diagonal_psi(model: SnLevyModel):
    """(psi, psi') of a phase-type model with a diagonal generator T = -diag(r)
    in mpmath at the working precision, as mu s + sigma^2 s^2/2 - lam sum_j
    alpha_j s/(s + r_j): no matrix solve, and no mean drift, which for rates
    far below 1 is a large negative number whose terms cancel at s ~ 1."""
    mu, sigma, lam = (mpmath.mpf(v) for v in (model.mu, model.sigma, model.lam))
    laws = [(mpmath.mpf(a), -mpmath.mpf(row[j]))
            for j, (a, row) in enumerate(zip(model.jumps.alpha, model.jumps.T))]

    def psi(s):
        return mu * s + sigma**2 * s**2 / 2 - lam * s * mpmath.fsum(a / (s + r) for a, r in laws)

    def dpsi(s):
        return mu + sigma**2 * s - lam * mpmath.fsum(a * r / (s + r) ** 2 for a, r in laws)

    return psi, dpsi


def mp_refine(psi, dpsi, q: float, r):
    """The root r of psi(s) = q, real or complex, refined by Newton steps to
    the working precision (less 5 digits)."""
    ref = mpmath.mpmathify(complex(r) if np.iscomplexobj(r) else float(r))
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    for _ in range(60):
        step = (psi(ref) - q) / dpsi(ref)
        ref -= step
        if abs(step) < tol * abs(ref):
            return ref
    raise AssertionError(f"no refined root near {r}")


def mp_residue_terms(model: SnLevyModel, q: float) -> list:
    """[(r, 1/psi'(r))] over the roots r of psi(r) = q of a phase-type model,
    zeta first, in mpmath at the working precision: each root refined by
    ``mp_refine`` from the double root of ``find_roots``, on the psi of
    ``mp_hyperexp_psi`` for hyperexponential jumps, ``mp_diagonal_psi`` for a
    diagonal generator and ``mp_ph_psi`` otherwise."""
    if isinstance(model.jumps, HyperExpDist):
        mp_psi = mp_hyperexp_psi
    else:
        T = np.asarray(model.jumps.T)
        mp_psi = mp_diagonal_psi if np.array_equal(T, np.diag(np.diag(T))) else mp_ph_psi
    psi, dpsi = mp_psi(model)
    d = find_roots(model, q)
    return [(ref, 1 / dpsi(ref))
            for ref in (mp_refine(psi, dpsi, q, r) for r in [d.zeta, *(-d.xi)])]


def mp_scale(model: SnLevyModel, q: float):
    """(zeta, W, Z) of a phase-type model in mpmath at the working precision, as the
    residue sums of 1/(psi(s) - q): W(x) = sum_r e^{r x}/psi'(r) over the roots
    r of psi(r) = q (``mp_residue_terms``).  Z(x) = 1 + q int_0^x W term by
    term.  Neither uses the residues A_i, nor lead = w0 + sum C."""
    roots = mp_residue_terms(model, q)

    def w(x):
        return mpmath.re(mpmath.fsum(c * mpmath.exp(r * x) for r, c in roots))

    def z(x):
        return 1 + q * mpmath.re(mpmath.fsum(c * mpmath.expm1(r * x) / r for r, c in roots))

    return roots[0][0], w, z


class ExpPolySum:
    """f(x) = sum over terms of poly(x) * exp(-rate * x), complex coefficients."""

    def __init__(self, terms: Sequence[Tuple[complex, np.ndarray]]):
        self.terms = [(complex(r), np.asarray(c, dtype=complex)) for r, c in terms]

    def __call__(self, x: float) -> complex:
        out = 0.0 + 0.0j
        for r, c in self.terms:
            # Horner evaluation of the polynomial factor
            p = 0.0 + 0.0j
            for coef in c[::-1]:
                p = p * x + coef
            out += p * np.exp(-r * x)
        return out

    def eval_real(self, x: float) -> float:
        v = self(x)
        if abs(v.imag) > _IMAG_TOL * (1.0 + abs(v.real)):
            raise RepeatedRootsDetected(f"imaginary residue {v.imag} at x={x}")
        return float(v.real)

    def derivative(self) -> "ExpPolySum":
        out = []
        for r, c in self.terms:
            d = np.zeros(max(len(c), 1), dtype=complex)
            if len(c) > 1:
                d[: len(c) - 1] += np.arange(1, len(c)) * c[1:]
            d[: len(c)] -= r * c
            out.append((r, d))
        return ExpPolySum(out)

    def integral0(self, x: float) -> complex:
        """Exact integral over [0, x]."""
        out = 0.0 + 0.0j
        for r, c in self.terms:
            if r == 0:
                g = np.zeros(len(c) + 1, dtype=complex)
                g[1:] = c / np.arange(1, len(c) + 1)
                p = 0.0 + 0.0j
                for coef in g[::-1]:
                    p = p * x + coef
                out += p
                continue
            # solve g' - r g = c so that (g e^{-rx})' = c e^{-rx}
            g = np.zeros(len(c), dtype=complex)
            g[-1] = -c[-1] / r
            for j in range(len(c) - 2, -1, -1):
                g[j] = ((j + 1) * g[j + 1] - c[j]) / r
            p = 0.0 + 0.0j
            for coef in g[::-1]:
                p = p * x + coef
            out += p * np.exp(-r * x) - g[0]
        return out


def loop_scale(sf) -> dict:
    """Scalar loop evaluators {name: f(x)} of W_zeta, W, W', Z and the Laplace
    transform of W, from ExpPolySum copies of the exponential sum of ``sf``."""
    tilted = ExpPolySum([(0.0, [sf.lead])]
                        + [(sf.zeta + xi, [-c]) for xi, c in zip(sf.xi, sf.C)])
    untilted = ExpPolySum([(-sf.zeta, [sf.lead])] + [(xi, [-c]) for xi, c in zip(sf.xi, sf.C)])
    slope = tilted.derivative()

    def laplace(s: float) -> float:
        # term poly * e^{-r x}: transform of x^j is j!/(s + r)^{j+1}
        out = 0.0 + 0.0j
        for r, c in untilted.terms:
            for j, coef in enumerate(c):
                out += coef * math.factorial(j) / (s + r) ** (j + 1)
        return float(out.real)

    def z(x: float) -> float:
        val = 1.0 + sf.q * untilted.integral0(x)
        if abs(val.imag) > _IMAG_TOL * (1.0 + abs(val.real)):
            raise RepeatedRootsDetected(f"imaginary residue {val.imag} at x={x}")
        return float(val.real)

    return {
        "w_tilted": tilted.eval_real,
        "w": lambda x: math.exp(sf.zeta * x) * tilted.eval_real(x),
        "w_prime": lambda x: math.exp(sf.zeta * x)
        * (sf.zeta * tilted.eval_real(x) + slope.eval_real(x)),
        "z": z,
        "laplace_transform_w": laplace,
    }


def bridge_exit_probabilities(y, y_end, s, b: float = math.inf):
    """(p_down, p_up) of ``mc._strip_series`` for Brownian bridges from y to
    y_end with variances s, summed over the ``mc._image_count`` images of
    the largest s; b = inf is the half-line (0, inf)."""
    y, y_end, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, y_end, s)))
    return mc._strip_series(y, y_end, s, b, mc._image_count(s, b))


def choice_sample_jumps(ph, rng, n):
    """Jump sizes of the phase-type arrays ``ph`` with the components drawn by
    ``rng.choice``: the reference for the sampler, which draws them through a
    lookup table on a cached cdf."""
    alpha, T = ph.alpha, ph.T
    m = alpha.size
    state = rng.choice(m, size=n, p=alpha / alpha.sum())
    if ph.diagonal:
        return rng.exponential(1.0 / -np.diag(T)[state])
    total = -np.diag(T)
    probs = np.column_stack((T / total[:, None], -T.sum(1) / total))
    probs[np.arange(m), np.arange(m)] = 0.0
    time = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        s = state[idx]
        time[idx] += rng.exponential(1.0 / total[s])
        nxt = (rng.random(len(idx))[:, None] > np.cumsum(probs[s], axis=1)).sum(axis=1)
        alive[idx[nxt == m]] = False
        state[idx[nxt < m]] = nxt[nxt < m]
    return time


def masked_run_batch(model, q, x, b, n, rng, substeps=None):
    """One batch of n paths: for sigma = 0 the reference for ``_run_batch``'s
    exact drift epochs, for sigma > 0 the paper's grid, a ``substeps``-point
    random walk per inter-jump epoch with crossings tested at grid points only
    and e^{-q tau} weights up to a horizon e^{-q t} < 1e-8.  One loop over
    boolean masks of all n paths, indexing every path by its position in the
    batch, with jumps from ``choice_sample_jumps``."""
    t_max = math.log(1.0 / 1e-8) / q  # horizon e^{-q t} < 1e-8
    pos = np.full(n, float(x))
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    up = np.zeros(n)
    down = np.zeros(n)
    over = np.full(n, np.nan)
    under = np.full(n, np.nan)
    mu, sigma, lam = model.mu, model.sigma, model.levy_mass
    ph = model.phase_type
    at_top = pos >= b
    up[at_top] = 1.0
    active &= ~at_top
    while active.any():
        idx = np.flatnonzero(active)
        k = len(idx)
        T = rng.exponential(1.0 / lam, size=k) if lam > 0 else np.full(k, 1.0)
        p0 = pos[idx]
        t0 = t[idx]
        if sigma > 0:
            dt = T / substeps
            # path = p0 + (mu dt j + sigma sqrt(dt) W_j), built in place
            path = rng.standard_normal((k, substeps))
            np.cumsum(path, axis=1, out=path)
            path *= sigma * np.sqrt(dt)[:, None]
            np.add(mu * dt[:, None] * np.arange(1, substeps + 1), path, out=path)
            path += p0[:, None]
            hit_dn = path < 0.0
            hit = hit_dn | (path >= b)
            first = np.argmax(hit, axis=1)
            any_hit = hit[np.arange(k), first]  # argmax is 0 on a row without a hit
            rows = np.flatnonzero(any_hit)
            cols = first[rows]
            val = np.exp(-q * (t0[rows] + dt[rows] * (cols + 1)))
            is_dn = hit_dn[rows, cols]
            gidx = idx[rows]
            down[gidx[is_dn]] = val[is_dn]
            up[gidx[~is_dn]] = val[~is_dn]
            over[gidx[is_dn]] = -path[rows[is_dn], cols[is_dn]]
            under[gidx[is_dn]] = np.where(
                cols[is_dn] > 0,
                path[rows[is_dn], np.maximum(cols[is_dn] - 1, 0)],
                p0[rows[is_dn]],
            )
            active[gidx] = False
            survivors = np.flatnonzero(~any_hit)
            pos[idx[survivors]] = path[survivors, -1]
        else:
            reach = p0 + mu * T >= b
            t_up = t0 + (b - p0) / mu
            up[idx[reach]] = np.exp(-q * t_up[reach])
            active[idx[reach]] = False
            survivors = np.flatnonzero(~reach)
            pos[idx[survivors]] += mu * T[survivors]
        live = idx[survivors]
        t[live] += T[survivors]
        if lam > 0 and len(live):
            before = pos[live]
            after = before - choice_sample_jumps(ph, rng, len(live))
            crossed = after < 0.0
            gdn = live[crossed]
            down[gdn] = np.exp(-q * t[gdn])
            over[gdn] = -after[crossed]
            under[gdn] = before[crossed]
            active[gdn] = False
            pos[live[~crossed]] = after[~crossed]
        active &= ~(t > t_max)
    return up, down, over, under


def grid_two_sided_exit(model: SnLevyModel, q: float, x: float, b: float, n_paths: int,
                        seed: int, substeps: int) -> Tuple[SimulationEstimate, SimulationEstimate]:
    """(up, down) estimates on the paper's grid of ``substeps`` points per
    epoch: ``masked_run_batch`` in batches of ``mc._BATCH`` paths, batch k on
    its own stream ``default_rng([seed, k])``, as the oracle batches."""
    su = su2 = sd = sd2 = 0.0
    for k, done in enumerate(range(0, n_paths, mc._BATCH)):
        rng = np.random.default_rng([seed, k])
        u, d, _, _ = masked_run_batch(model, q, x, b, min(mc._BATCH, n_paths - done), rng,
                                      substeps)
        su += u.sum()
        su2 += (u**2).sum()
        sd += d.sum()
        sd2 += (d**2).sum()
    scheme = f"grid-{substeps}"
    return (SimulationEstimate.from_sums(su, su2, n_paths, seed, scheme),
            SimulationEstimate.from_sums(sd, sd2, n_paths, seed, scheme))


# beta_1 = -zeta(1/2)/sqrt(2 pi) ~ 0.5826 of Broadie, Glasserman & Kou (1997)
BGK_BETA1 = -float(mpmath.zeta(0.5)) / math.sqrt(2.0 * math.pi)


def grid_corrected_exit(sf, x: float, b: float, sigma: float, lam: float,
                        substeps: int) -> Tuple[float, float]:
    """(up, down) exit probabilities the paper's grid estimates to first order:
    monitoring a Brownian motion at spacing dt acts like continuous
    monitoring of barriers moved outward by d = beta_1 sigma E[sqrt(dt)]
    (Broadie, Glasserman & Kou 1997, Math. Finance 7), so 0 moves to -d and b
    to b + d, and the strip (-d, b + d) from x is (0, b + 2d) from x + d.
    Jumps are tested exactly, and d is 0 at sigma = 0."""
    # E[sqrt(dt)] = Gamma(3/2)/sqrt(substeps lam) for dt = T/substeps, T ~ Exp(lam)
    d = BGK_BETA1 * sigma * math.gamma(1.5) / math.sqrt(substeps * lam)
    return up_exit(sf, x + d, b + 2.0 * d), down_exit(sf, x + d, b + 2.0 * d)
