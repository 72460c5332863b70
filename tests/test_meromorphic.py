"""Beta-family Laplace exponent, roots, truncated scale-function bounds."""
import math

import mpmath
import numpy as np
import pytest

from phscale.errors import (
    BracketingFailure,
    DomainError,
    NegativeSubordinator,
    PoleEvaluation,
    UnsupportedRegime,
)
from phscale.meromorphic import (
    BETA_BENCHMARK,
    BETA_BENCHMARK_Q,
    BetaFamilyParams,
    _BetaKernel,
    _SHIFT,
    beta_poles,
    beta_psi,
    beta_psi_derivative,
    cgmy_limit_study,
    cgmy_params,
    mero_roots,
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
            mu, sig, a, b, c, y = map(mpmath.mpf, (p.mu_hat, p.sigma, p.alpha_b, p.beta_b,
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
        terms = 1.0 + p.mu_hat * xis + 0.5 * p.sigma**2 * xis**2
        assert np.max(np.abs(beta_psi(p, -xis) - Q) / terms) < 1e-9
        etas = beta_poles(BETA_BENCHMARK, np.arange(1, m + 2))
        assert np.all(np.concatenate(([0.0], etas[:-1])) < xis)
        assert np.all(xis < etas)

    def test_roots_next_to_right_pole(self):
        # at q = 100 each xi_k sits just left of eta_k; bisection from the
        # middle of each gap starts at the poles of Gamma(x + y)
        p = BETA_BENCHMARK
        zeta, xis = mero_roots(p, 100.0, 30)
        terms = 1.0 + p.mu_hat * xis + 0.5 * p.sigma**2 * xis**2
        assert np.max(np.abs(beta_psi(p, -xis) - 100.0) / terms) < 1e-9
        assert np.all(beta_poles(p, np.arange(1, 32)) - xis < 0.01)

    def test_q_and_m_checks(self):
        with pytest.raises(DomainError):
            mero_roots(BETA_BENCHMARK, 0.0, 10)
        with pytest.raises(DomainError):
            mero_roots(BETA_BENCHMARK, Q, 0)


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

    def test_theta_and_epsilon(self, tm100):
        assert tm100.theta == pytest.approx(2.0 / 0.2**2, rel=1e-14)  # = 50
        assert tm100.epsilon is not None and tm100.epsilon > 0

    def test_w_zero_regimes(self):
        bv = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        tm = truncated_coefficients(bv, Q, 5)
        assert tm.sf.w0 - tm.delta == pytest.approx(10.0)  # W(0) = 1/mu
        ubv = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=2.5)
        with pytest.raises(UnsupportedRegime):
            truncated_coefficients(ubv, Q, 5)
        neg = BetaFamilyParams(-0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        with pytest.raises(NegativeSubordinator):
            truncated_coefficients(neg, Q, 5)

    def test_infinite_mass_dichotomy(self):
        # sigma = 0, lam in [1, 2): sum A_i xi_i diverges, theta undefined
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
        partial = []
        for m in (10, 100, 400):
            tm = truncated_coefficients(p, Q, m)
            assert tm.theta is None and tm.epsilon is None
            partial.append(
                (tm.sf.zeta / tm.sf.q)
                * float(np.sum(np.asarray(tm.xi[:m]) * np.asarray(tm.sf.A)))
            )
        assert partial[0] < partial[1] < partial[2]

    def test_finite_mass_sigma_zero(self):
        # lam < 1: finite jump mass, theta from the compound-Poisson formula
        p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.5)
        tm = truncated_coefficients(p, Q, 20)
        assert tm.theta is not None and tm.epsilon is not None

    def test_finite_mass_theta_against_mpmath(self):
        # theta = -zeta/mu + (q + mass)/mu^2 loses about six digits to
        # cancellation at q = 1e3; (c/beta) B(alpha + zeta/beta, 1-lam)/mu^2
        # is the same number without it, since psi(zeta) = q
        p = BetaFamilyParams(1.0, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=0.1)
        q = 1e3
        tm = truncated_coefficients(p, q, 25)
        with mpmath.workdps(50):
            mu, a, b, c, y = map(mpmath.mpf, (p.mu_hat, p.alpha_b, p.beta_b, p.c, 1 - p.lam))
            psi = lambda z: mu * z + (c / b) * (mpmath.beta(a + z / b, y) - mpmath.beta(a, y))
            zeta = mpmath.findroot(lambda z: psi(z) - q, mpmath.mpf(tm.sf.zeta))
            theta = float((c / b) * mpmath.beta(a + zeta / b, y) / mu**2)
        assert tm.theta == pytest.approx(theta, rel=1e-11, abs=0.0)

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
            errs.append(abs(tm.sf.zeta / tm.sf.q - tm.theta / s))
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
        for fn in (w_bounds, z_bounds, w_prime_bounds):
            assert all(type(v) is float for v in fn(tm10, 0.5))


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
        diffs = [d["upper_sup_diff"] for d in study["sup_diffs"]]
        assert diffs[0] > diffs[1]
        lower = [d["lower_sup_diff"] for d in study["sup_diffs"]]
        assert lower[0] > lower[1]

    def test_levy_density_limit(self):
        x = -1.0
        target = cgmy_levy_density(0.1, 3.0, BETA_BENCHMARK.lam, x)
        p = cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta=0.01)
        assert beta_levy_density(p, x) == pytest.approx(target, rel=0.01)

    def test_c_overflow_is_domain_error(self):
        # c~ beta^lam leaves the float range at beta = 1e300, lam = 1.5
        with pytest.raises(DomainError, match="overflows"):
            cgmy_params(BETA_BENCHMARK, 3.0, 0.1, beta=1e300)

    def test_betas_must_decrease(self):
        with pytest.raises(DomainError):
            cgmy_limit_study(BETA_BENCHMARK, 3.0, 0.1, [0.5, 1.0], Q, 10, [0.0, 1.0])
