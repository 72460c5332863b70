"""Beta-family Laplace exponent, roots, truncated scale-function bounds."""
import math

import mpmath
import numpy as np
import pytest

from phscale.errors import (
    BracketingFailure,
    DomainError,
    InvertedBounds,
    NegativeSubordinator,
    NumericalFailure,
    PoleEvaluation,
    UnsupportedRegime,
)
from phscale.meromorphic import (
    BETA_BENCHMARK,
    BETA_BENCHMARK_Q,
    BetaFamilyParams,
    _BetaKernel,
    _SHIFT,
    _truncated_ladder,
    beta_poles,
    beta_psi,
    beta_psi_derivative,
    cgmy_limit_study,
    cgmy_params,
    mero_roots,
    scale_bounds,
    truncated_coefficients,
    w_bounds,
    w_prime_bounds,
    z_bounds,
)
from phscale.models import builtin_model
from phscale.roots import find_roots
from phscale.wiener_hopf import partial_fraction_coefficients

from closed_forms import beta_levy_density, cgmy_levy_density

Q = BETA_BENCHMARK_Q


def w_tilted_bounds(tm, x):
    """Bounds on the tilted scale function e^{-zeta x} W^{(q)}(x)."""
    lo, hi = w_bounds(tm, x)
    damp = math.exp(-tm.sf.zeta * x)
    return lo * damp, hi * damp


def reference_bounds(tm, x):
    """W, Z and W' bounds at one x > 0, term by term over xi_1..xi_m."""
    xi, C = np.asarray(tm.xi[: tm.m]), np.asarray(tm.sf.C)
    xm1, e = tm.xi[tm.m], np.exp(-xi * x)
    wu = math.exp(tm.sf.zeta * x) / tm.sf.psi_prime_zeta - float(np.sum(C * e))
    wl = wu - tm.delta * (1.0 + math.exp(-xm1 * x))
    zu = 1.0 + tm.sf.q * (math.expm1(tm.sf.zeta * x) / (tm.sf.zeta * tm.sf.psi_prime_zeta)
                       - float(np.sum(C * (1.0 - e) / xi)))
    zl = zu - tm.sf.q * tm.delta * (x + (1.0 - math.exp(-xm1 * x)) / xm1)
    pl = tm.sf.zeta * math.exp(tm.sf.zeta * x) / tm.sf.psi_prime_zeta + float(np.sum(C * xi * e))
    head = float(np.max(xi * e))
    tail = 1.0 / (math.e * x) if xm1 <= 1.0 / x else xm1 * math.exp(-xm1 * x)
    pu = pl + (head + tail) * tm.delta
    if tm.epsilon is not None:
        pu = min(pu, pl + head * tm.delta + math.exp(-xm1 * x) * tm.epsilon)
    return wl, wu, zl, zu, pl, pu


def mp_sum_c(zeta, q, xi, eta):
    """sum_i C_i at the working precision, from the product residues of the
    roots xi and the poles eta."""
    return mpmath.fsum(
        (zeta / q) * x / (zeta + x) * mpmath.fprod((e - x) / e for e in eta)
        * mpmath.fprod(y / (y - x) for l, y in enumerate(xi) if l != i)
        for i, x in enumerate(xi))


@pytest.fixture(scope="module")
def tm10():
    return truncated_coefficients(BETA_BENCHMARK, Q, 10)


@pytest.fixture(scope="module")
def tm100():
    return truncated_coefficients(BETA_BENCHMARK, Q, 100)


class TestParams:
    def test_ranges_enforced(self):
        with pytest.raises(DomainError):
            BetaFamilyParams(0.1, 0.2, alpha_b=-1.0, beta_b=1.0, c=0.1, lam=1.5)
        with pytest.raises(DomainError):
            BetaFamilyParams(0.1, 0.2, alpha_b=3.0, beta_b=1.0, c=0.1, lam=3.0)
        with pytest.raises(NegativeSubordinator):
            BetaFamilyParams(0.1, -0.2, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        with pytest.raises(DomainError, match="finite"):
            BetaFamilyParams(0.1, 0.2, alpha_b=3.0, beta_b=math.inf, c=0.1, lam=1.5)

    @pytest.mark.parametrize("sigma", (1e-200, 1e200))
    def test_sigma_square_out_of_float_range(self, sigma):
        # truncated_coefficients would divide by sigma^2 = 0 or square 1e200
        with pytest.raises(DomainError, match="float range"):
            BetaFamilyParams(0.1, sigma, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)

    def test_levy_density(self):
        x = -0.7
        p = BETA_BENCHMARK
        expected = (
            p.c * math.exp(p.alpha_b * p.beta_b * x)
            / (1.0 - math.exp(p.beta_b * x)) ** p.lam
        )
        assert beta_levy_density(p, x) == pytest.approx(expected, rel=1e-14)
        assert beta_levy_density(p, 0.5) == 0.0


class TestPsi:
    def test_zero(self):
        assert beta_psi(BETA_BENCHMARK, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_c_zero_reduction(self):
        p = BetaFamilyParams(0.3, 0.5, alpha_b=2.0, beta_b=1.0, c=0.0, lam=1.5)
        s = 1.7
        assert beta_psi(p, s) == pytest.approx(0.3 * s + 0.125 * s**2, rel=1e-14)

    def test_convex_on_grid(self):
        grid = np.linspace(0.0, 2.0, 60)
        vals = np.array([beta_psi(BETA_BENCHMARK, float(s)) for s in grid])
        assert np.all(np.diff(vals, 2) > 0)

    def test_pole_blow_up(self):
        eta1 = beta_poles(BETA_BENCHMARK, 1)
        near = abs(beta_psi(BETA_BENCHMARK, -eta1 + 1e-7))
        far = abs(beta_psi(BETA_BENCHMARK, -eta1 + 1e-2))
        assert near > 1e3 * far

    def test_pole_evaluation_raised(self):
        eta1 = beta_poles(BETA_BENCHMARK, 1)
        with pytest.raises(PoleEvaluation):
            beta_psi(BETA_BENCHMARK, -eta1)
        with pytest.raises(PoleEvaluation):
            beta_psi(BETA_BENCHMARK, np.array([0.5, -eta1, 1.0]))

    def test_finite_at_poles_of_gamma_x_plus_y(self):
        # at s = -3.5, B(alpha + s, 1 - lam) = B(-0.5, -0.5) = Gamma(-0.5)^2 / Gamma(-1) = 0
        p = BETA_BENCHMARK
        b0 = math.gamma(3.0) * math.gamma(-0.5) / math.gamma(2.5)
        expected = -0.35 + 0.5 * 0.04 * 3.5**2 - p.c * b0
        assert beta_psi(p, -3.5) == pytest.approx(expected, rel=1e-14)
        assert beta_psi(p, np.array([-3.5, -4.5]))[0] == beta_psi(p, -3.5)

    def test_array_matches_scalar(self):
        s = np.linspace(-2.9, 3.0, 41)
        vals = beta_psi(BETA_BENCHMARK, s)
        assert isinstance(beta_psi(BETA_BENCHMARK, 0.5), float)
        assert vals == pytest.approx([beta_psi(BETA_BENCHMARK, float(v)) for v in s],
                                     rel=1e-15, abs=1e-15)

    def test_derivative_vs_finite_difference(self):
        h = 1e-7
        for s in (0.1, 0.5, 1.0, 2.0):
            fd = (beta_psi(BETA_BENCHMARK, s + h) - beta_psi(BETA_BENCHMARK, s - h)) / (2 * h)
            assert beta_psi_derivative(BETA_BENCHMARK, s) == pytest.approx(fd, rel=1e-6)

    def test_derivative_at_every_root_in_one_call(self):
        # psi' at zeta and the 101 -xi_k of m = 100 in one call, against 40
        # digits; psi' sums terms of either sign (3.9 times |psi'| at -xi_1),
        # each good to a few eps, so the error is taken relative to their sum
        p = BETA_BENCHMARK
        zeta, xis = mero_roots(p, Q, 100)
        s = np.concatenate(([zeta], -xis))
        got = beta_psi_derivative(p, s)
        assert got.shape == s.shape and isinstance(beta_psi_derivative(p, zeta), float)
        with mpmath.workdps(40):
            mu, sig, a, b, c, y = map(mpmath.mpf, (p.mu, p.sigma, p.alpha_b, p.beta_b,
                                                   p.c, 1 - p.lam))
            ref, terms = [], []
            for v in map(mpmath.mpf, s):
                x = a + v / b
                jump = c / b**2 * mpmath.beta(x, y) * (mpmath.digamma(x) - mpmath.digamma(x + y))
                ref.append(float(mu + sig**2 * v + jump))
                terms.append(float(mu + sig**2 * abs(v) + abs(jump)))
        assert np.max(np.abs(got - ref) / terms) <= 1e-15


# y = 1 - lam: both signs, next to the poles of Gamma(y) at 0 and -1, and
# below -1, where the kernel lifts y by 1
KERNEL_YS = (0.9, 0.5, 0.3, -0.5, -0.99, -1.5)


def mp_rel_err(got, ref):
    """|got - ref| / |ref|; a zero of B must come out as 0."""
    if ref == 0:
        return 0.0 if got == 0 else math.inf
    return float(abs((mpmath.mpf(got) - ref) / ref))


def mp_beta(x, y):
    with mpmath.workdps(40):
        return mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))


class TestBetaKernel:
    """B(x, y) against 40-digit mpmath: 300 x in [-797, 3], x next to the poles
    of Gamma(x) from -1 to -800, large x, the branch seams, and the zeros."""

    SWEEP = np.concatenate((
        np.linspace(-796.9, 2.9, 300),
        [k + d for k in (-1, -2, -3, -10, -100, -551, -800)
         for d in (1e-6, 1e-4, 1e-2, 0.3, -1e-6, -1e-4, -1e-2, -0.3)],
        [-551.9, 50.5, 1003.3, 10003.7, 1e5 + 0.3, 1e8 + 0.3],
    ))

    @pytest.mark.parametrize("y", KERNEL_YS)
    def test_sweep(self, y):
        kernel = _BetaKernel(y)
        got = kernel(self.SWEEP)
        assert max(mp_rel_err(b, mp_beta(x, y)) for x, b in zip(self.SWEEP, got)) <= 1e-14

    @pytest.mark.parametrize("x", (1003.3, 10003.7))
    def test_large_x(self, x):
        # exp(gammaln - gammaln) was 5e-13 and 5.6e-12 off here
        kernel = _BetaKernel(0.5)
        assert mp_rel_err(kernel(np.array([x, 2.0]))[0], mp_beta(x, 0.5)) <= 1e-14
        assert mp_rel_err(kernel(np.array([x]))[0], mp_beta(x, 0.5)) <= 1e-14

    @pytest.mark.parametrize("y", KERNEL_YS)
    def test_seams(self, y):
        # the reflection meets the direct branch at h = (1 - y1)/2, with y1 = y
        # (or y + 1 below -1), and the shift ends _SHIFT from h on either side;
        # x and x + y next to 1/2 as well (x = 0 is a pole at y = 1/2)
        h = 0.5 * (1.0 - (y + 1.0 if y < -1 else y))
        xs = np.array([c + d for c in (h, h + _SHIFT, h - _SHIFT, 0.5, 0.5 - y)
                       for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3) if c + d != 0.0])
        kernel = _BetaKernel(y)
        got = kernel(xs)
        assert max(mp_rel_err(b, mp_beta(x, y)) for x, b in zip(xs, got)) <= 1e-14

    @pytest.mark.parametrize("y, xs", [
        (0.5, (-1.5, -2.5, -10.5, -799.5)),
        (-0.5, (0.5, -0.5, -9.5)),
        (-1.5, (1.5, 0.5, -0.5, -7.5)),
    ])
    def test_zero_where_x_plus_y_is_a_pole(self, y, xs):
        # x + y is 0, -1, ... exactly, so 1/Gamma(x + y) = 0
        kernel = _BetaKernel(y)
        assert kernel(np.array(xs)).tolist() == [0.0] * len(xs)

    @pytest.mark.parametrize("y", KERNEL_YS)
    def test_next_to_the_zeros_and_to_one(self, y):
        # x + y within d of 1 or of a pole of Gamma(x + y): the sine argument
        # r + y carries one rounding, about 1.1e-16 absolute, so B is good to
        # that over d
        kernel = _BetaKernel(y)
        for k in (1, 0, -1, -2, -7, -300):
            for d in (1e-8, 1e-5, 1e-3, 0.1, 0.45, -1e-8, -1e-5, -1e-3, -0.1):
                x = k + d - y
                if x <= 0 and abs(x - round(x)) < 1e-6:
                    continue  # a pole of Gamma(x)
                ref = mp_beta(x, y)
                gap = float(abs(mpmath.mpf(x) + y - k))
                b = kernel(np.array([x, 2.0]))[0]
                assert mp_rel_err(b, ref) <= 1e-14 + 2.3e-16 / gap, (k, d)

    @pytest.mark.parametrize("y", KERNEL_YS)
    def test_digamma_difference(self, y):
        # dB/dx = B (psi0(x) - psi0(x + y)), for beta_psi_derivative
        xs = np.array([0.02, 0.3, 0.7, 1.7, 2.5, 10.0, 23.9, 24.1, 100.0, 1e4])
        bs, dbs = _BetaKernel(y)(xs, derivative=True)
        assert bs.tolist() == _BetaKernel(y)(xs).tolist()
        for x, b, db in zip(xs, bs, dbs):
            with mpmath.workdps(40):
                ref = mpmath.digamma(x) - mpmath.digamma(mpmath.mpf(x) + y)
            assert db / b == pytest.approx(float(ref), rel=1e-14), x

    @pytest.mark.parametrize("y", KERNEL_YS)
    def test_a_point_gets_the_same_bits_in_any_array(self, y):
        # a ladder reads B(alpha_i, 1 - lam) and psi'(zeta_i) of all members in
        # one call: each must equal the member's own one-point call
        xs = np.concatenate((np.linspace(-20.3, 60.7, 150), np.geomspace(1e-3, 1e3, 50)))
        xs = xs[np.abs(xs - np.rint(xs)) > 1e-3]
        kernel = _BetaKernel(y)
        bs, dbs = kernel(xs, derivative=True)
        one = [kernel(np.array([x]), derivative=True) for x in xs]
        assert bs.tolist() == [b[0] for b, _ in one]
        assert dbs.tolist() == [db[0] for _, db in one]

    @pytest.mark.parametrize("lam", (0.5, 1.5, 2.5))
    def test_any_shape_gets_the_bits_of_the_flat_call(self, lam):
        # the kernel flattens its input and restores the shape: a 2-D array and
        # a float get the bits of the 1-D call, on the reflection branch
        # (x < h), in the shift (|x - h| < _SHIFT) and on the direct branch;
        # y = 1 - lam = -1.5 takes the lift
        kernel = _BetaKernel(1.0 - lam)
        xs = np.array([-40.3, -7.3, -0.4, 0.1, 0.6, 1.7, 5.2, 23.0, 30.5, 1e3])
        bs, dbs = kernel(xs, derivative=True)
        grid = xs.reshape(2, 5)
        b2, db2 = kernel(grid, derivative=True)
        assert (b2.shape, db2.shape) == (grid.shape, grid.shape)
        assert b2.tolist() == kernel(grid).tolist() == bs.reshape(grid.shape).tolist()
        assert db2.tolist() == dbs.reshape(grid.shape).tolist()
        for x, b, db in zip(xs.tolist(), bs, dbs):
            one, d_one = kernel(x, derivative=True)
            assert (np.shape(one), np.shape(d_one), np.shape(kernel(x))) == ((), (), ())
            assert (float(one), float(d_one), float(kernel(x))) == (b, db, b)

    @pytest.mark.parametrize("y, x, k", [(-0.5, 0.5, 0), (-1.5, 1.5, 0), (-1.5, 0.5, 1)])
    def test_derivative_at_a_zero(self, y, x, k):
        # x + y = -k: B = 0 and dB/dx = Gamma(y) Gamma(x) (-1)^k k!
        (b,), (db,) = _BetaKernel(y)(np.array([x]), derivative=True)
        assert b == 0.0
        assert db == pytest.approx(math.gamma(y) * math.gamma(x) * (-1) ** k, rel=1e-14)

    def test_poles(self):
        for y in (0.0, -1.0, -1.0 + 1e-13):
            with pytest.raises(PoleEvaluation):
                _BetaKernel(y)
        kernel = _BetaKernel(0.5)
        # within 1e-12 (1 + |x|) of 0, -1, -2, ...
        for x in (0.0, -3.0, -3.0 + 3e-12, -800.0 - 1e-10):
            with pytest.raises(PoleEvaluation):
                kernel(np.array([1.5, x]))
        assert math.isfinite(kernel(np.array([-3.0 + 5e-12]))[0])
        with pytest.raises(PoleEvaluation):
            beta_psi(BetaFamilyParams(0.1, 0.2, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.0), 0.5)


class TestPoles:
    def test_formula(self):
        assert beta_poles(BETA_BENCHMARK, 1) == 3.0
        assert beta_poles(BETA_BENCHMARK, 2) == 4.0
        assert beta_poles(BETA_BENCHMARK, 3) == 5.0
        half = BetaFamilyParams(0.1, 0.2, alpha_b=3.0, beta_b=0.5, c=0.1, lam=1.5)
        assert beta_poles(half, 1) == 1.5

    def test_linear_growth(self):
        # eta_k ~ beta * k for large k
        for k in (1000, 10000):
            assert beta_poles(BETA_BENCHMARK, k) / k == pytest.approx(
                BETA_BENCHMARK.beta_b, rel=1e-2
            )

    def test_index_check(self):
        with pytest.raises(DomainError):
            beta_poles(BETA_BENCHMARK, 0)


# the real-pole record of the beta-family against mpmath: the benchmark, and
# mu = 1, alpha = 3, beta = 1, c = 1 at lam = 0.5 (sigma = 0) and lam = 2.5
# (sigma = 0.3: sigma = 0 with lam >= 2 is unsupported)
RECORD_CASES = [BETA_BENCHMARK,
                BetaFamilyParams(1.0, 0.0, alpha_b=3.0, beta_b=1.0, c=1.0, lam=0.5),
                BetaFamilyParams(1.0, 0.3, alpha_b=3.0, beta_b=1.0, c=1.0, lam=2.5)]


def _mp_record(p):
    """(d, c_k, eta_k) of the beta-family in mpmath at the working precision:
    d = psi'(0+) = mu + (c/beta^2) B(alpha, 1 - lam) (psi0(alpha) -
    psi0(alpha + 1 - lam)), c_k = c (lam)_k / k!, eta_k = beta (alpha + k)."""
    mu, a, b, c, lam = (mpmath.mpf(v) for v in (p.mu, p.alpha_b, p.beta_b, p.c, p.lam))
    y = 1 - lam
    d = mu + c / b**2 * mpmath.beta(a, y) * (mpmath.digamma(a) - mpmath.digamma(a + y))
    return d, (lambda k: c * mpmath.rf(lam, k) / mpmath.factorial(k)), (lambda k: b * (a + k))


def _mp_sum(term):
    """sum_{k >= 0} term(k) at 20 digits by Euler-Maclaurin: nsum's default
    extrapolation is 2e-6 to 4e-2 off on these slowly decaying terms, and
    Euler-Maclaurin takes about 50 s a sum at 40 digits, 0.2 s at 20."""
    with mpmath.workdps(20):
        return mpmath.nsum(term, [0, mpmath.inf], method="euler-maclaurin")


@pytest.mark.parametrize("p", RECORD_CASES, ids=("benchmark", "lam0.5", "lam2.5"))
class TestRealPoles:
    def test_mean_drift(self, p):
        with mpmath.workdps(40):
            d = _mp_record(p)[0]
            assert float(abs(p.real_poles.d - d) / abs(d)) < 1e-13

    def test_weights_and_poles(self, p):
        # c_k for k <= 10^4, the reference by c_{k+1} = c_k (lam + k)/(k + 1);
        # eta_k = beta (alpha + k) is the (k + 1)-th pole
        k = np.arange(10**4 + 1)
        assert p.real_poles.eta(k).tobytes() == beta_poles(p, k + 1).tobytes()
        got = p.real_poles.c(k)
        with mpmath.workdps(40):
            lam, ref, worst = mpmath.mpf(p.lam), mpmath.mpf(p.c), 0.0
            for k, g in enumerate(got):
                worst = max(worst, float(abs(g - ref) / ref))
                ref *= (lam + k) / (k + 1)
        assert worst < 1e-13

    @pytest.mark.parametrize("s", (0.5, -2.0))
    def test_centred_form_is_psi(self, p, s):
        # psi(s) = s (d + s (sigma^2/2 + sum_k c_k / (eta_k^2 (eta_k + s)))),
        # centred at the record's d, sums for every lam < 3
        with mpmath.workdps(40):
            _, c, eta = _mp_record(p)
            a, b, cc, lam = (mpmath.mpf(v) for v in (p.alpha_b, p.beta_b, p.c, p.lam))
            ref = (p.mu * s + mpmath.mpf(p.sigma) ** 2 * s**2 / 2
                   + cc / b * (mpmath.beta(a + s / b, 1 - lam) - mpmath.beta(a, 1 - lam)))
        tail = _mp_sum(lambda k: c(k) / (eta(k) ** 2 * (eta(k) + s)))
        got = s * (p.real_poles.d + s * (mpmath.mpf(p.sigma) ** 2 / 2 + tail))
        assert float(abs(got - ref) / abs(ref)) < 1e-13


def test_real_poles_mass_is_levy_mass():
    # sum_k c_k / eta_k = (c/beta) B(alpha, 1 - lam), finite for lam < 1
    _, c, eta = _mp_record(RECORD_CASES[1])
    mass = _mp_sum(lambda k: c(k) / eta(k))
    assert float(abs(mass - RECORD_CASES[1].levy_mass) / mass) < 1e-13


class TestRoots:
    def test_residuals_and_interlacing(self):
        zeta, xis = mero_roots(BETA_BENCHMARK, Q, 100)
        assert beta_psi(BETA_BENCHMARK, zeta) == pytest.approx(Q, abs=1e-9)
        for xi in xis:
            assert abs(beta_psi(BETA_BENCHMARK, -float(xi)) - Q) < 1e-9
        etas = [beta_poles(BETA_BENCHMARK, k) for k in range(1, 102)]
        lo = 0.0
        for xi, eta in zip(xis, etas):
            assert lo < xi < eta
            lo = eta

    def test_m800_residuals_and_interlacing(self):
        m = 800
        zeta, xis = mero_roots(BETA_BENCHMARK, Q, m)
        assert xis.shape == (m + 1,)
        # psi(-xi) = q is a cancellation of terms of size sigma^2 xi^2 / 2 (about
        # 1e4 at xi = 800), each good to a few eps, so the residual is bounded
        # relative to those terms
        p = BETA_BENCHMARK
        terms = 1.0 + p.mu * xis + 0.5 * p.sigma**2 * xis**2
        assert np.max(np.abs(beta_psi(p, -xis) - Q) / terms) < 1e-9
        etas = beta_poles(BETA_BENCHMARK, np.arange(1, m + 2))
        assert np.all(np.concatenate(([0.0], etas[:-1])) < xis)
        assert np.all(xis < etas)

    def test_roots_next_to_right_pole(self):
        # at q = 100 each xi_k sits just left of eta_k; bisection from the
        # middle of each gap starts at the poles of Gamma(x + y)
        p = BETA_BENCHMARK
        zeta, xis = mero_roots(p, 100.0, 30)
        terms = 1.0 + p.mu * xis + 0.5 * p.sigma**2 * xis**2
        assert np.max(np.abs(beta_psi(p, -xis) - 100.0) / terms) < 1e-9
        assert np.all(beta_poles(p, np.arange(1, 32)) - xis < 0.01)

    def test_q_and_m_checks(self, monkeypatch):
        import phscale.meromorphic as mero

        with pytest.raises(DomainError):
            mero_roots(BETA_BENCHMARK, 0.0, 10)
        with pytest.raises(DomainError):
            mero_roots(BETA_BENCHMARK, Q, 0)

        # m = 10^5 + 1 is refused before the poles are built; m = 10^5 gets
        # as far as building them
        def no_poles(*args):
            raise AssertionError("poles built")

        monkeypatch.setattr(mero, "beta_poles", no_poles)
        for solve in (mero_roots, truncated_coefficients):
            with pytest.raises(DomainError, match="100000"):
                solve(BETA_BENCHMARK, Q, 10**5 + 1)
            with pytest.raises(AssertionError, match="poles built"):
                solve(BETA_BENCHMARK, Q, 10**5)
        with pytest.raises(DomainError, match="100000"):
            cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, [1.0, 0.5], Q, 10**5 + 1, [0.0])

    def test_no_jumps_is_refused_before_the_root_search(self, monkeypatch):
        # c = 0 leaves psi without poles: nothing for the roots to interlace
        import phscale.meromorphic as mero

        def no_search(*args):
            raise AssertionError("root search started")

        monkeypatch.setattr(mero, "interlaced_solve", no_search)
        p = BetaFamilyParams(0.1, 0.2, alpha_b=3.0, beta_b=1.0, c=0.0, lam=1.5)
        for solve in (mero_roots, truncated_coefficients):
            with pytest.raises(UnsupportedRegime, match="c = 0"):
                solve(p, Q, 10)
        with pytest.raises(UnsupportedRegime, match="c = 0"):
            cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.0, [1.0, 0.5], Q, 10, [0.0, 1.0])

    @pytest.mark.parametrize("alpha", (1e300, 1e16))
    def test_collapsed_poles_are_refused_before_the_root_search(self, monkeypatch, alpha):
        # alpha + k - 1 rounds to one float for several k: the poles
        # beta (alpha + k - 1) are no longer strictly increasing
        import phscale.meromorphic as mero

        def no_search(*args):
            raise AssertionError("root search started")

        monkeypatch.setattr(mero, "interlaced_solve", no_search)
        p = BetaFamilyParams(0.1, 0.2, alpha_b=alpha, beta_b=1.0, c=0.1, lam=1.5)
        for solve in (mero_roots, truncated_coefficients):
            with pytest.raises(DomainError, match="strictly increasing"):
                solve(p, Q, 5)
        with pytest.raises(DomainError, match="strictly increasing"):
            cgmy_limit_study(BETA_BENCHMARK, alpha, 0.1, [1.0, 0.5], Q, 5, [0.0, 1.0])


class TestTruncation:
    def test_positivity(self, tm10, tm100):
        for tm in (tm10, tm100):
            assert all(a > 0 for a in tm.sf.A)
            assert all(c > 0 for c in tm.sf.C)
            assert tm.delta > 0

    def test_delta_decreasing(self, tm10, tm100):
        assert tm100.delta < tm10.delta

    def test_a_monotone_in_m(self, tm10, tm100):
        for i in range(10):
            assert tm10.sf.A[i] < tm100.sf.A[i]

    def test_residues_match_mpmath_product(self):
        # A_i = prod_j (eta_j - xi_i)/eta_j * prod_{l != i} xi_l/(xi_l - xi_i) at
        # 50 digits, from the computed xi: the beta-family at m = 300, and the
        # pareto-fit hyperexponential, whose rates span ten decades
        tm = truncated_coefficients(BETA_BENCHMARK, Q, 300)
        cases = [(tm.xi[:300], tm.sf.decomp.poles, tm.sf.A)]
        for sigma in (0.0, 1.0):
            for q in (1e-3, 0.05, 100.0):
                d = find_roots(builtin_model("pareto-fit", sigma=sigma), q)
                cases.append((d.xi, d.poles, partial_fraction_coefficients(d).real))
        with mpmath.workdps(50):
            for xis, etas, A in cases:
                xi = [mpmath.mpf(float(v)) for v in xis]
                eta = [mpmath.mpf(float(v)) for v in etas]
                for i, x in enumerate(xi):
                    ref = mpmath.fprod((e - x) / e for e in eta) * mpmath.fprod(
                        y / (y - x) for l, y in enumerate(xi) if l != i)
                    assert A[i] == pytest.approx(float(ref), rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", (3e-3, 0.03))
    def test_delta_matches_mpmath_product(self, q):
        # delta_m = 1/psi'(zeta) - w0 - sum C cancels: against the 30-digit
        # product residues of the same roots it keeps 1e-11 relative
        tm = truncated_coefficients(BETA_BENCHMARK, q, 200)
        with mpmath.workdps(30):
            xi = [mpmath.mpf(float(v)) for v in tm.sf.xi]
            eta = [mpmath.mpf(float(v)) for v in tm.sf.decomp.poles]
            zeta = mpmath.mpf(tm.sf.zeta)
            sum_c = mp_sum_c(zeta, q, xi, eta)
            ref = 1 / mpmath.mpf(tm.sf.psi_prime_zeta) - sum_c  # W(0) = 0 for sigma > 0
            assert abs(tm.delta / ref - 1) <= 1e-11

    def test_negative_delta_raises(self):
        # psi_beta cancels as s -> 0, so at q = 1e-20 the roots drift and
        # delta_m comes out near -2e4: every lower bound would be above its upper
        with pytest.raises(InvertedBounds, match="delta_m") as info:
            truncated_coefficients(BETA_BENCHMARK, 1e-20, 5)
        assert isinstance(info.value, NumericalFailure)

    @pytest.mark.xfail(strict=True, reason=(
        "psi_beta forms mu s + (c/beta)(B(alpha + s/beta, 1 - lam) - B(alpha, 1 - lam)), "
        "which cancels as s -> 0: xi_1 ~ 5.8e-11 is off by 4e-4 relative, and delta_m "
        "reads 0.52863 against 0.5069499"))
    def test_delta_at_small_q_matches_mpmath(self):
        # the 40-digit reference refines every root of psi_beta(s) = q with
        # findroot and forms the product residues of those roots
        p, q, m = BETA_BENCHMARK, 1e-12, 30
        tm = truncated_coefficients(p, q, m)
        with mpmath.workdps(40):
            mu, sig, a, b, c, y = map(mpmath.mpf, (p.mu, p.sigma, p.alpha_b, p.beta_b,
                                                   p.c, 1 - p.lam))
            psi = lambda z: (mu * z + sig**2 * z**2 / 2
                             + (c / b) * (mpmath.beta(a + z / b, y) - mpmath.beta(a, y)))
            zeta = mpmath.findroot(lambda z: psi(z) - q, mpmath.mpf(tm.sf.zeta))
            xi = [-mpmath.findroot(lambda z: psi(z) - q, -mpmath.mpf(float(v)))
                  for v in tm.xi[:m]]
            eta = [b * (a + k) for k in range(m)]
            u = a + zeta / b
            ppz = mu + sig**2 * zeta + c / b**2 * mpmath.beta(u, y) * (
                mpmath.digamma(u) - mpmath.digamma(u + y))
            ref = 1 / ppz - mp_sum_c(zeta, q, xi, eta)  # W(0) = 0 for sigma > 0
        assert abs(tm.delta / ref - 1) <= 1e-6

    def test_theta_and_epsilon(self, tm100):
        assert tm100.sf.theta == pytest.approx(2.0 / 0.2**2, rel=1e-14)  # = 50
        assert tm100.epsilon is not None and tm100.epsilon > 0

    def test_w_zero_regimes(self):
        bv = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        tm = truncated_coefficients(bv, Q, 5)
        assert tm.sf.w0 - tm.delta == pytest.approx(10.0)  # W(0) = 1/mu
        ubv = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=2.5)
        with pytest.raises(UnsupportedRegime):
            truncated_coefficients(ubv, Q, 5)
        with pytest.raises(NegativeSubordinator):  # refused at construction
            BetaFamilyParams(-0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)

    def test_infinite_mass_dichotomy(self):
        # sigma = 0, lam in [1, 2): sum A_i xi_i diverges, theta undefined
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        partial = []
        for m in (10, 100, 400):
            tm = truncated_coefficients(p, Q, m)
            assert tm.sf.theta == math.inf and tm.epsilon is None
            partial.append(
                (tm.sf.zeta / tm.sf.q)
                * float(np.sum(np.asarray(tm.xi[:m]) * np.asarray(tm.sf.A)))
            )
        assert partial[0] < partial[1] < partial[2]

    def test_finite_mass_sigma_zero(self):
        # lam < 1: finite jump mass, theta from the compound-Poisson formula
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.5)
        tm = truncated_coefficients(p, Q, 20)
        assert tm.sf.theta < math.inf and tm.epsilon is not None
        # for a beta model, sum C is checked against 1/psi'(zeta) - w0, and
        # the w0 of sf holds W(0) + delta_m: sum C = 1/psi'(zeta) - W(0) - delta_m
        assert tm.sf.sum_c_residual() < 1e-12

    @pytest.mark.parametrize("m", (5, 20, 100, 800))
    @pytest.mark.parametrize("q", (1e-3, 0.03, 3.0))
    def test_lead_is_w0_plus_sum_c(self, q, m):
        # w0 holds W(0) + delta_m with delta_m = 1/psi'(zeta) - W(0) - sum C, so
        # the lead 1/psi'(zeta) stays w0 + sum C up to rounding, for single
        # truncations and for every member of a ladder
        finite = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.5)
        ladder = [cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta) for beta in LADDERS[0]]
        tms = [truncated_coefficients(p, q, m) for p in (BETA_BENCHMARK, finite)]
        for tm in tms + _truncated_ladder(ladder, q, m):
            sf = tm.sf
            assert abs(sf.lead - (sf.w0 + float(sf.C.sum()))) <= 4 * np.spacing(sf.lead)

    def test_finite_mass_theta_against_mpmath(self):
        # theta = -zeta/mu + (q + mass)/mu^2 loses about six digits to
        # cancellation at q = 1e3; (c/beta) B(alpha + zeta/beta, 1-lam)/mu^2
        # is the same number without it, since psi(zeta) = q
        p = BetaFamilyParams(1.0, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.1)
        q = 1e3
        tm = truncated_coefficients(p, q, 25)
        with mpmath.workdps(50):
            mu, a, b, c, y = map(mpmath.mpf, (p.mu, p.alpha_b, p.beta_b, p.c, 1 - p.lam))
            psi = lambda z: mu * z + (c / b) * (mpmath.beta(a + z / b, y) - mpmath.beta(a, y))
            zeta = mpmath.findroot(lambda z: psi(z) - q, mpmath.mpf(tm.sf.zeta))
            theta = float((c / b) * mpmath.beta(a + zeta / b, y) / mu**2)
        assert tm.sf.theta == pytest.approx(theta, rel=1e-11, abs=0.0)

    def test_truncation_carries_its_model(self):
        assert truncated_coefficients(BETA_BENCHMARK, Q, 20).sf.model is BETA_BENCHMARK

    @pytest.mark.parametrize("lam", (0.1, 0.5, 1.0, 1.5))
    def test_levy_mass_against_mpmath(self, lam):
        # (c/beta) B(alpha, 1 - lam) for a finite mass, inf from lam = 1 on
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=lam)
        if lam >= 1:
            assert p.levy_mass == math.inf
            return
        with mpmath.workdps(40):
            ref = float(mpmath.mpf(p.c) / p.beta_b * mpmath.beta(p.alpha_b, 1 - mpmath.mpf(lam)))
        assert p.levy_mass == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", (0.1, 0.5))
    def test_jump_transform_against_mpmath(self, lam):
        # (c/beta) B(alpha + s/beta, 1 - lam), at a float and on an array
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=lam)
        s = np.array([0.01, 1.0, 10.0])
        with mpmath.workdps(40):
            a, b, c, y = map(mpmath.mpf, (p.alpha_b, p.beta_b, p.c, 1 - mpmath.mpf(lam)))
            ref = [float(c / b * mpmath.beta(a + mpmath.mpf(v) / b, y)) for v in s]
        np.testing.assert_allclose(p.jump_transform(s), ref, rtol=1e-14, atol=0.0)
        assert [p.jump_transform(float(v)) for v in s] == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_wp0_finite_mass_against_mpmath(self):
        # sigma = 0 and lam < 1: W'(0+) = (q + Pi)/mu^2 with the Levy mass Pi
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.5)
        tm = truncated_coefficients(p, Q, 20)
        with mpmath.workdps(40):
            mu, a, b, c, y = map(mpmath.mpf, (p.mu, p.alpha_b, p.beta_b, p.c, 1 - p.lam))
            ref = float((mpmath.mpf(Q) + c / b * mpmath.beta(a, y)) / mu**2)
        assert tm.sf.wp0 == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", (25, 100, 800))
    def test_beta_psi_calls_per_solve(self, monkeypatch, m):
        import phscale.meromorphic as mero

        calls = []

        def counting(params, s):
            calls.append(1)
            return beta_psi(params, s)

        monkeypatch.setattr(mero, "beta_psi", counting)
        truncated_coefficients(BETA_BENCHMARK, Q, m)
        assert len(calls) <= 25

    def test_partial_sum_identity_converges(self):
        # |zeta/q - theta / sum_{i<=M} A_i xi_i| decreases in M for sigma > 0
        errs = []
        for m in (10, 100, 400):
            tm = truncated_coefficients(BETA_BENCHMARK, Q, m)
            s = float(np.sum(np.asarray(tm.xi[:m]) * np.asarray(tm.sf.A)))
            errs.append(abs(tm.sf.zeta / tm.sf.q - tm.sf.theta / s))
        assert errs[0] > errs[1] > errs[2]


class TestWBounds:
    def test_gap_identity(self, tm100):
        for x in np.linspace(0.0, 1.0, 101):
            lo, hi = w_bounds(tm100, float(x))
            gap = tm100.delta * (1.0 + math.exp(-tm100.xi[tm100.m] * float(x)))
            assert hi - lo == pytest.approx(gap, abs=1e-12 * max(1.0, hi))

    def test_gap_at_zero(self, tm10):
        lo, hi = w_bounds(tm10, 0.0)
        assert hi - lo == pytest.approx(2.0 * tm10.delta, rel=1e-12)

    def test_nesting(self, tm10, tm100):
        for x in np.linspace(0.0, 1.0, 500):
            lo1, hi1 = w_bounds(tm10, float(x))
            lo2, hi2 = w_bounds(tm100, float(x))
            assert lo1 <= lo2 + 1e-12
            assert hi2 <= hi1 + 1e-12

    def test_tilted(self, tm100):
        lo, hi = w_bounds(tm100, 0.5)
        tlo, thi = w_tilted_bounds(tm100, 0.5)
        damp = math.exp(-tm100.sf.zeta * 0.5)
        assert (tlo, thi) == pytest.approx((lo * damp, hi * damp), rel=1e-14)


class TestArrayBounds:
    def test_grid_matches_scalar_calls_and_reference(self, tm100):
        grid = np.linspace(0.0, 1.0, 500)
        pos = grid[1:]
        arrays = (*w_bounds(tm100, grid), *z_bounds(tm100, grid))
        scalars = np.array([(*w_bounds(tm100, float(x)), *z_bounds(tm100, float(x)))
                            for x in grid]).T
        wp = w_prime_bounds(tm100, pos)
        wp_scalars = np.array([w_prime_bounds(tm100, float(x)) for x in pos]).T
        ref = np.array([reference_bounds(tm100, float(x)) for x in pos]).T
        for got, want in zip((*arrays, *wp), (*scalars, *wp_scalars)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for got, want in zip((*(a[1:] for a in arrays), *wp), ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_scalar_in_float_out(self, tm10):
        for fn in (w_bounds, z_bounds, w_prime_bounds, scale_bounds):
            assert all(type(v) is float for v in fn(tm10, 0.5))

    def test_one_evaluation_at_m800_matches_reference(self):
        # the six columns of scale_bounds come from one exponential tile per
        # row block; w_bounds forms its W alone
        tm = truncated_coefficients(BETA_BENCHMARK, Q, 800)
        grid = np.linspace(0.0, 1.0, 101)
        at = [1, 50, 100]  # x = 0.01, 0.5, 1
        ref = np.array([reference_bounds(tm, float(grid[k])) for k in at]).T
        pos = grid[at]
        singles = (*w_bounds(tm, pos), *z_bounds(tm, pos), *w_prime_bounds(tm, pos))
        for got, single, want in zip(scale_bounds(tm, grid), singles, ref):
            tol = 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(got[at] - want)) <= tol
            assert np.max(np.abs(single - want)) <= tol

    @pytest.mark.parametrize("m", (10, 800))
    def test_z_and_w_prime_bounds_are_columns_of_scale_bounds(self, m):
        tm = truncated_coefficients(BETA_BENCHMARK, Q, m)
        grid, pos = np.linspace(0.0, 1.0, 101), np.linspace(0.01, 1.0, 100)
        got = (*z_bounds(tm, grid), *w_prime_bounds(tm, pos))
        want = (*scale_bounds(tm, grid)[2:4], *scale_bounds(tm, pos)[4:])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_infinite_point_raises(self, tm10):
        # the Z lower bound at x = inf would be inf - inf
        for fn in (w_bounds, z_bounds, w_prime_bounds, scale_bounds):
            for x in (math.inf, np.array([0.5, math.inf])):
                with pytest.raises(DomainError, match="finite"):
                    fn(tm10, x)

    def test_one_evaluation_at_zero(self, tm100):
        wl, wu, zl, zu, pl, pu = scale_bounds(tm100, np.array([0.0, 0.5]))
        assert (wl[0], wu[0]) == w_bounds(tm100, 0.0)
        assert (zl[0], zu[0]) == (1.0, 1.0)
        assert np.isnan([pl[0], pu[0]]).all() and np.isfinite([pl[1], pu[1]]).all()


class TestZBounds:
    def test_at_zero(self, tm100):
        assert z_bounds(tm100, 0.0) == (1.0, 1.0)
        lo, hi = z_bounds(tm100, np.array([0.0, 0.5]))
        assert (lo[0], hi[0]) == (1.0, 1.0)

    def test_gap_formula(self, tm100):
        for x in (0.1, 0.5, 1.0):
            lo, hi = z_bounds(tm100, x)
            xm1 = tm100.xi[tm100.m]
            gap = tm100.sf.q * tm100.delta * (x + (1.0 - math.exp(-xm1 * x)) / xm1)
            assert hi - lo == pytest.approx(gap, rel=1e-10)

    def test_lower_nondecreasing_where_w_lower_positive(self, tm100):
        # near zero the W lower bound dips negative (the gap 2*delta_m exceeds
        # W there), so its integral -- the Z lower bound -- briefly decreases;
        # monotonicity holds on the region where the W lower bound is positive
        grid = [x for x in np.linspace(0.0, 1.0, 200) if w_bounds(tm100, x)[0] > 0]
        assert grid, "W lower bound positive somewhere on [0, 1]"
        los = [z_bounds(tm100, float(x))[0] for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(los, los[1:]))

    def test_lower_below_upper(self, tm100):
        for x in np.linspace(0.0, 1.0, 100):
            lo, hi = z_bounds(tm100, float(x))
            assert lo <= hi


class TestWPrimeBounds:
    def test_ordering(self, tm100):
        for x in np.linspace(0.01, 1.0, 100):
            lo, hi = w_prime_bounds(tm100, float(x))
            assert lo <= hi

    def test_contains_finite_difference(self, tm100):
        h = 1e-6
        for x in np.linspace(0.1, 1.0, 19):
            mid = lambda y: 0.5 * sum(w_bounds(tm100, y))
            fd = (mid(float(x) + h) - mid(float(x) - h)) / (2 * h)
            lo, hi = w_prime_bounds(tm100, float(x))
            assert lo - 1e-6 <= fd <= hi + 1e-6

    def test_tail_sup_branch_continuity(self, tm10):
        x_star = 1.0 / tm10.xi[tm10.m]
        eps = 1e-10
        lo1, hi1 = w_prime_bounds(tm10, x_star - eps)
        lo2, hi2 = w_prime_bounds(tm10, x_star + eps)
        assert hi1 == pytest.approx(hi2, rel=1e-6)

    def test_domain(self, tm10):
        with pytest.raises(DomainError):
            w_prime_bounds(tm10, 0.0)
        for bad in ([0.5, 0.0], [-1.0, 0.5]):
            with pytest.raises(DomainError):
                w_prime_bounds(tm10, np.array(bad))


class TestCgmy:
    def test_beta_one_identity(self):
        # beta = 1 rescaling with alpha~ = alpha, c~ = c reproduces the base
        p = cgmy_params(BETA_BENCHMARK, tilde_alpha=3.0, tilde_c=0.1, beta=1.0)
        assert p == BETA_BENCHMARK

    def test_sup_diffs_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        study = cgmy_limit_study(
            BETA_BENCHMARK, 3.0, 0.1, betas=[1.0, 0.5, 0.1], q=Q, m=100, grid=grid
        )
        diffs = list(study["upper_sup_diff"])
        assert diffs[0] > diffs[1]
        lower = list(study["lower_sup_diff"])
        assert lower[0] > lower[1]

    def test_rows_are_the_member_bounds(self):
        betas, grid = [0.9, 0.5, 0.12], np.linspace(0.0, 2.0, 41)
        study = cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, betas, Q, 50, grid)
        assert sorted(study) == ["lower", "lower_sup_diff", "upper", "upper_sup_diff"]
        assert study["lower"].shape == study["upper"].shape == (3, 41)
        for beta, lower, upper in zip(betas, study["lower"], study["upper"]):
            tm = truncated_coefficients(cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta), Q, 50)
            ref_lower, ref_upper = w_bounds(tm, grid)
            assert (lower.tolist(), upper.tolist()) == (ref_lower.tolist(), ref_upper.tolist())
        for key in ("lower", "upper"):
            rows = study[key]
            assert study[f"{key}_sup_diff"].tolist() == [
                float(np.max(np.abs(a - b))) for a, b in zip(rows, rows[1:])]

    def test_empty_grid_has_zero_sup_diffs(self):
        study = cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, [1.0, 0.5], Q, 10, [])
        assert study["lower"].shape == study["upper"].shape == (2, 0)
        assert study["upper_sup_diff"].tolist() == study["lower_sup_diff"].tolist() == [0.0]

    @pytest.mark.parametrize("bad", (-1.0, math.nan, math.inf))
    def test_grid_refused_before_the_ladder_solve(self, monkeypatch, bad):
        import phscale.meromorphic as mero

        calls = []
        psi = mero._psi

        def counting(p, s, jump):
            calls.append(np.shape(s))
            return psi(p, s, jump)

        monkeypatch.setattr(mero, "_psi", counting)
        with pytest.raises(DomainError):
            cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, [1.0, 0.5], Q, 10, [0.0, bad, 1.0])
        assert calls == []

    def test_levy_density_limit(self):
        x = -1.0
        target = cgmy_levy_density(0.1, 3.0, BETA_BENCHMARK.lam, x)
        p = cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta=0.01)
        assert beta_levy_density(p, x) == pytest.approx(target, rel=0.01)

    def test_c_overflow_is_domain_error(self):
        # c~ beta^lam leaves the float range at beta = 1e300, lam = 1.5
        with pytest.raises(DomainError, match="overflows"):
            cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta=1e300)

    def test_c_underflow_is_domain_error(self):
        # c~ beta^lam rounds to 0 at beta = 1e-300, lam = 1.5, though c~ = 0.1:
        # refused by name, not taken for a family without jumps
        with pytest.raises(DomainError, match="underflows"):
            cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta=1e-300)

    @pytest.mark.parametrize("beta", (1e-200, 1e200))
    def test_psi_prime_refuses_beta_square_out_of_float_range(self, beta):
        # c / beta^2 divides by 0 or squares 1e200: refused by name, as the
        # Levy data of real_poles evaluate psi'(0+)
        p = cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta)
        with pytest.raises(DomainError, match="float range"):
            beta_psi_derivative(p, 0.5)
        with pytest.raises(DomainError, match="float range"):
            p.real_poles

    def test_betas_must_decrease(self):
        with pytest.raises(DomainError):
            cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, [0.5, 1.0], Q, 10, [0.0, 1.0])


LADDERS = ((0.6, 0.3, 0.1), (0.9, 0.5, 0.12), (0.55, 0.2, 0.05), (1.0, 0.37, 0.07, 0.02))


class TestLadder:
    """A cgmy-limit ladder is solved as one bracket array; every step is
    elementwise per bracket, so each member gets the bits of its own solve."""

    @pytest.mark.parametrize("m", (1, 25, 100))
    @pytest.mark.parametrize("q", (3e-3, 0.03, 0.3))
    @pytest.mark.parametrize("betas", LADDERS, ids=str)
    def test_ladder_equals_the_member_solves(self, betas, q, m):
        members = [cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta) for beta in betas]
        for p, tm in zip(members, _truncated_ladder(members, q, m)):
            zeta, xis = mero_roots(p, q, m)
            ref = truncated_coefficients(p, q, m)
            assert (tm.sf.zeta, tm.xi.tolist()) == (zeta, xis.tolist())
            assert tm.sf.psi_prime_zeta == ref.sf.psi_prime_zeta
            assert (tm.delta, tm.epsilon, tm.sf.lead) == (ref.delta, ref.epsilon, ref.sf.lead)
            assert tm.sf.C.tolist() == ref.sf.C.tolist()

    def test_one_psi_call_per_step_for_the_whole_ladder(self, monkeypatch):
        import phscale.meromorphic as mero

        calls = []
        psi = mero._psi

        def counting(p, s, jump):
            calls.append(np.shape(s))
            return psi(p, s, jump)

        monkeypatch.setattr(mero, "_psi", counting)
        members = [cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta) for beta in LADDERS[0]]
        _truncated_ladder(members, Q, 100)
        ladder = len(calls)
        calls.clear()
        for p in members:
            truncated_coefficients(p, Q, 100)
        assert ladder <= 25 and 2.5 * ladder < len(calls)

    def test_empty_ladder(self):
        assert _truncated_ladder([], Q, 10) == []
