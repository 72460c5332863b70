"""Exit identities and overshoot/undershoot laws."""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from phscale.errors import DomainError, PoleEvaluation, UnsupportedRegime
from phscale.fluctuation import (
    IntervalPair,
    conjecture_residuals,
    down_exit,
    down_exit_unbounded,
    joint_overshoot_undershoot,
    overshoot_density,
    undershoot_density,
    up_exit,
)
from phscale.meromorphic import BETA_BENCHMARK, truncated_coefficients
from phscale.models import (
    BUILTIN_JUMPS,
    EXP1,
    PARETO_FIT,
    PhaseTypeRepr,
    SnLevyModel,
    WEIBULL_FIT,
    builtin_model,
)
from phscale.scale import build_scale

from closed_forms import as_phase_type, mp_scale, rho

Q = 0.05
INF = math.inf


class TestExit:
    def test_at_barrier(self, scales):
        for sf in scales.values():
            assert up_exit(sf, 3.0, 3.0) == pytest.approx(1.0, rel=1e-12)
            assert down_exit(sf, 3.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_discounted_total_below_one(self, scales):
        for sf in scales.values():
            for x in np.linspace(0.0, 5.0, 11):
                u = up_exit(sf, float(x), 5.0)
                d = down_exit(sf, float(x), 5.0)
                assert -1e-12 <= u <= 1.0
                assert -1e-12 <= d <= 1.0
                assert u + d <= 1.0 + 1e-12

    def test_unbounded_limit(self, scales):
        # convergence rate in b is e^{-(zeta+xi_1)b}; the Pareto fit's
        # smallest root ~6.6e-5 makes the approach visibly slower
        for (name, sigma), sf in scales.items():
            tol = 1e-4 if name == "pareto-fit" else 1e-9
            for x in (0.5, 2.0, 4.0):
                assert down_exit(sf, x, 300.0) == pytest.approx(
                    down_exit_unbounded(sf, x), abs=tol
                )

    def test_large_barrier_no_overflow(self, scales):
        sf = scales[("exp1", 1.0)]
        # e^{zeta b} alone would overflow at b = 5000
        u = up_exit(sf, 1.0, 5000.0)
        assert 0.0 <= u < 1e-200

    def test_domain_errors(self, scales):
        sf = scales[("exp1", 1.0)]
        with pytest.raises(DomainError):
            up_exit(sf, 6.0, 5.0)
        with pytest.raises(DomainError):
            down_exit(sf, -1.0, 5.0)
        with pytest.raises(DomainError):
            down_exit_unbounded(sf, -1.0)


class TestAtInfinity:
    """x = inf is in the domain of every evaluator on [0, inf): each gives its
    limit there, as e^{-xi inf} = 0, and no NaN."""

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("name", ("exp1", "pareto-fit"))
    def test_limits(self, scales, name, sigma):
        sf = scales[(name, sigma)]
        xs = np.array([1.0, INF])
        assert (sf.w(INF), sf.w_prime(INF), sf.z(INF)) == (INF, INF, INF)
        assert [v[1] for v in sf.evaluate(xs)] == [INF, INF, INF]
        assert down_exit_unbounded(sf, xs)[1] == 0.0
        assert overshoot_density(sf, 1.0, xs)[1] == 0.0
        assert undershoot_density(sf, 1.0, xs)[1] == 0.0
        assert up_exit(sf, 1.0, INF) == 0.0
        assert down_exit(sf, 1.0, INF) == down_exit_unbounded(sf, 1.0)

    def test_limits_with_complex_roots(self):
        # a conjugate pair of roots beside real ones held as a + 0j: inf times
        # such a rate made NaN in the tile; finite points keep their values
        T = ((-3.0, 2.5, 0.0), (0.0, -2.0, 1.9), (3.5, 0.0, -4.0))
        jumps = PhaseTypeRepr(alpha=(0.5, 0.3, 0.2), T=T)
        sf = build_scale(SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=jumps), 0.05)
        assert np.iscomplexobj(sf.xi) and (sf.xi.imag == 0).any()
        xs = np.array([0.5, INF, 2.0])
        for fn in (sf.w, sf.w_tilted):
            assert fn(xs)[[0, 2]].tolist() == fn(xs[[0, 2]]).tolist()
        assert (sf.w(INF), sf.w_tilted(INF)) == (INF, sf.lead)
        assert [v[1] for v in sf.evaluate(xs)] == [INF, INF, INF]
        assert down_exit_unbounded(sf, xs)[1] == 0.0
        assert up_exit(sf, 1.0, INF) == 0.0
        assert down_exit(sf, 1.0, INF) == down_exit_unbounded(sf, 1.0)


def _down_exit_cells():
    for name in ("exp1", "weibull-fit", "pareto-fit"):
        for sigma in (0.0, 1.0):
            for q in np.geomspace(1e-3, 1e3, 13):
                # pareto-fit above q ~ 133: the root xi_1 meets the pole
                # eta_1 = 8.3e-9 (weight 8.4e-11) and build_scale raises
                marks = (pytest.mark.xfail(raises=PoleEvaluation, strict=True)
                         if name == "pareto-fit" and q > 133 else ())
                yield pytest.param(name, sigma, float(q), marks=marks,
                                   id=f"{name}-s{sigma:g}-q{q:.3g}")


class TestDownExitSweep:
    """Z(x) - Z(b) W(x)/W(b) cancels once e^{zeta b} is large; the
    rearranged form must stay a probability at every q."""

    @pytest.mark.parametrize("name, sigma, q", _down_exit_cells())
    def test_probability_and_small_q_agreement(self, name, sigma, q):
        sf = build_scale(builtin_model(name, sigma=sigma), q)
        b = 5.0
        for x in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.9):
            u, d = up_exit(sf, x, b), down_exit(sf, x, b)
            assert -1e-12 <= d <= 1.0 + 1e-12
            assert u + d <= 1.0 + 1e-12
            if q <= 1.0:
                direct = sf.z(x) - sf.z(b) * u
                assert d == pytest.approx(direct, rel=1e-10, abs=0)


# a 3-phase Coxian of the closed-form benchmark, where D(x) - (W(x)/W(b)) D(b)
# is small: a D rebuilt from cancelling terms of W and Z lost five digits here
COXIAN = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=PhaseTypeRepr(
    alpha=(1.0, 0.0, 0.0),
    T=((-5.200937397294847, 3.5576920793584645, 0.0),
       (0.0, -4.2384995351843795, 2.435096668061824),
       (0.0, 0.0, -3.1456212423609706))))


def _exp1(sigma: float) -> SnLevyModel:
    """exp1 as a phase-type model, which ``mp_scale`` reads."""
    return SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=as_phase_type(EXP1))


class TestAgainstResidueSums:
    """The exit laws and the undershoot density against W and Z summed over
    the roots of psi(s) = q in mpmath, with enough digits that their
    e^{zeta x} terms cancel exactly: each within 1e-13 relative."""

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    def test_down_exit_unbounded_at_large_q(self, sigma):
        # zeta x reaches 1e3 at q = 1e3, so Z(x) and (q/zeta) W(x) agree in
        # their first 430 digits
        q = 1e3
        sf = build_scale(builtin_model("exp1", sigma=sigma), q)
        with mpmath.workdps(800):
            zeta, w, z = mp_scale(_exp1(sigma), q)
            for x in (4.0, 5.0):
                ref = float(z(x) - q / zeta * w(x))
                assert down_exit_unbounded(sf, x) == pytest.approx(ref, rel=1e-13, abs=0), x

    @pytest.mark.parametrize("q", (47.16, 300.0))
    def test_down_exit_where_small(self, q):
        sf = build_scale(COXIAN, q)
        with mpmath.workdps(300):
            _, w, z = mp_scale(COXIAN, q)
            ref = float(z(4) - z(5) * w(4) / w(5))
        assert down_exit(sf, 4.0, 5.0) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", (0.05, 100.0))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    def test_undershoot_at_small_positions(self, sigma, q):
        # lam e^{-b} (e^{-zeta b} W(2) - W(2 - b)): the two terms agree to
        # about log10(1/b) digits
        sf = build_scale(builtin_model("exp1", sigma=sigma), q)
        with mpmath.workdps(60):
            zeta, w, _ = mp_scale(_exp1(sigma), q)
            for b in (1e-12, 1e-8, 1e-4):
                mb = mpmath.mpf(b)
                ref = float(5 * mpmath.exp(-mb) * (mpmath.exp(-zeta * mb) * w(2) - w(2 - mb)))
                assert undershoot_density(sf, 2.0, b) == pytest.approx(ref, rel=1e-13, abs=0), b


class TestIntervalPair:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            IntervalPair(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            IntervalPair(0.0, 1.0, 3.0, 2.0)

    def test_infinite_endpoints_allowed(self):
        IntervalPair(0.0, INF, 0.0, INF)


class TestRho:
    def test_degenerate_windows(self):
        pair_a = IntervalPair(1.0, 1.0, 0.0, 2.0)
        pair_b = IntervalPair(0.0, 2.0, 1.0, 1.0)
        assert rho(0.3, pair_a, WEIBULL_FIT, 5.0) == pytest.approx(0.0, abs=1e-15)
        assert rho(0.3, pair_b, WEIBULL_FIT, 5.0) == pytest.approx(0.0, abs=1e-15)

    def test_single_rate_hand_formula(self):
        from phscale.models import EXP1

        pair = IntervalPair(0.5, 2.0, 0.25, 1.5)
        lam, eta = 5.0, 1.0
        expected = (
            lam
            * (math.exp(-eta * 0.5) - math.exp(-eta * 2.0))
            * (math.exp(-eta * 0.25) - math.exp(-eta * 1.5))
            / eta
        )
        assert rho(0.0, pair, EXP1, lam) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("K", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize(
        "pair",
        [
            IntervalPair(0.5, 2.0, 0.25, 1.5),
            IntervalPair(0.0, INF, 0.5, 3.0),
            IntervalPair(1.0, 3.0, 0.0, INF),
        ],
    )
    def test_quadrature_oracle(self, K, pair):
        """rho equals the tail-measure double integral
        int_B e^{Ky} [Pibar(y+a_lo) - Pibar(y+a_hi)] dy."""
        lam = 5.0
        jumps = WEIBULL_FIT
        if math.isinf(pair.b_hi) and K >= min(jumps.eta):
            pytest.skip("divergent window")

        def tail(u):  # Pibar(u, inf) = lam * sum p_j e^{-eta_j u}
            return lam * sum(
                p * math.exp(-e * u) for p, e in zip(jumps.p, jumps.eta)
            )

        def integrand(y):
            hi_term = 0.0 if math.isinf(pair.a_hi) else tail(y + pair.a_hi)
            return math.exp(K * y) * (tail(y + pair.a_lo) - hi_term)

        ref, _ = quad(integrand, pair.b_lo, pair.b_hi, limit=400)
        assert rho(K, pair, jumps, lam) == pytest.approx(ref, rel=1e-8)

    def test_additivity_in_b(self):
        pair1 = IntervalPair(0.5, 2.0, 0.0, 1.0)
        pair2 = IntervalPair(0.5, 2.0, 1.0, 2.5)
        whole = IntervalPair(0.5, 2.0, 0.0, 2.5)
        s = rho(0.2, pair1, WEIBULL_FIT, 5.0) + rho(0.2, pair2, WEIBULL_FIT, 5.0)
        assert s == pytest.approx(rho(0.2, whole, WEIBULL_FIT, 5.0), rel=1e-12)


class TestJoint:
    def test_degenerate_overshoot_window(self, scales):
        sf = scales[("exp1", 0.0)]
        pair = IntervalPair(1.0, 1.0, 0.0, INF)
        assert joint_overshoot_undershoot(sf, 2.0, pair) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_case2_mass_identity(self, scales):
        # no creeping for sigma = 0: full-window joint mass equals the
        # unbounded down-exit value
        full = IntervalPair(0.0, INF, 0.0, INF)
        for (name, sigma), sf in scales.items():
            if sigma != 0.0:
                continue
            for x in (0.5, 2.0, 5.0):
                assert joint_overshoot_undershoot(sf, x, full) == pytest.approx(
                    down_exit_unbounded(sf, x), abs=1e-8
                )

    def test_case1_creeping_gap(self, scales):
        full = IntervalPair(0.0, INF, 0.0, INF)
        for (name, sigma), sf in scales.items():
            if sigma != 1.0:
                continue
            jump_mass = joint_overshoot_undershoot(sf, 2.0, full)
            total = down_exit_unbounded(sf, 2.0)
            assert jump_mass < total  # positive creeping mass

    def test_additivity(self, scales):
        for sf in scales.values():
            a = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.0, 1.0, 1.0, 2.0))
            b = joint_overshoot_undershoot(sf, 3.0, IntervalPair(1.0, 2.5, 1.0, 2.0))
            ab = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.0, 2.5, 1.0, 2.0))
            assert a + b == pytest.approx(ab, abs=1e-10)
            c = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.5, 1.5, 0.0, 2.0))
            d = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.5, 1.5, 2.0, 6.0))
            cd = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.5, 1.5, 0.0, 6.0))
            assert c + d == pytest.approx(cd, abs=1e-10)

    def test_window_straddles_x(self, scales):
        # the min/max branch split must join continuously across b = x
        for sf in scales.values():
            lo = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.0, INF, 0.0, 3.0))
            hi = joint_overshoot_undershoot(sf, 3.0, IntervalPair(0.0, INF, 3.0, INF))
            whole = joint_overshoot_undershoot(
                sf, 3.0, IntervalPair(0.0, INF, 0.0, INF)
            )
            assert lo + hi == pytest.approx(whole, rel=1e-10)

    def test_ph_jumps_rejected(self):
        jumps = PhaseTypeRepr(alpha=(1.0, 0.0), T=((-2.0, 2.0), (0.0, -2.0)))
        m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=jumps)
        sf = build_scale(m, Q)
        with pytest.raises(UnsupportedRegime):
            joint_overshoot_undershoot(sf, 2.0, IntervalPair(0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("sigma", (0.0, 1.0))
@pytest.mark.parametrize("name", ("exp1", "weibull-fit", "pareto-fit"))
def test_diagonal_twin_matches_hyperexp(name, sigma):
    # the laws and the roots read (lam alpha, eta) from the phase-type
    # arrays, so a diagonal PhaseTypeRepr gives the same numbers
    jumps = as_phase_type(BUILTIN_JUMPS[name])
    twin_model = SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=jumps)
    grid = np.linspace(0.1, 8.0, 40)
    for q in (Q, 100.0):
        he = build_scale(builtin_model(name, sigma=sigma), q)
        twin = build_scale(twin_model, q)
        np.testing.assert_allclose(twin.w(grid), he.w(grid), rtol=1e-12, atol=0, err_msg=f"q={q}")
        for fn in (up_exit, down_exit):
            assert fn(twin, 2.0, 5.0) == pytest.approx(fn(he, 2.0, 5.0), rel=1e-12, abs=0), q
        for fn in (overshoot_density, undershoot_density):
            np.testing.assert_allclose(fn(twin, 5.0, grid), fn(he, 5.0, grid),
                                       rtol=1e-12, atol=0, err_msg=f"q={q}")
        for pair in (IntervalPair(0.5, 2.0, 1.0, 6.0), IntervalPair(0.0, INF, 0.0, INF)):
            assert joint_overshoot_undershoot(twin, 3.0, pair) == pytest.approx(
                joint_overshoot_undershoot(he, 3.0, pair), rel=1e-12, abs=0), q
        # the residuals are relative already: both sides agree to 1e-12
        np.testing.assert_allclose(conjecture_residuals(twin), conjecture_residuals(he),
                                   rtol=0, atol=1e-12, err_msg=f"q={q}")


@pytest.mark.parametrize("sigma", (0.0, 1.0))
def test_diagonal_twin_raises_where_hyperexp_does(sigma):
    # at q = 1e3 pareto-fit's smallest root sits 4.5e-13 relative from its
    # pole: both models raise the same typed error, neither returns a number
    errors = []
    for law in (PARETO_FIT, as_phase_type(PARETO_FIT)):
        with pytest.raises(PoleEvaluation) as exc:
            down_exit(build_scale(SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=law), 1e3),
                      2.0, 5.0)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


class TestDensities:
    def test_overshoot_nonnegative(self, scales):
        for sf in scales.values():
            for a in np.linspace(0.05, 8.0, 40):
                assert overshoot_density(sf, 5.0, float(a)) >= 0.0

    def test_overshoot_integrates_to_joint(self, scales):
        full = IntervalPair(0.0, INF, 0.0, INF)
        for sf in scales.values():
            ref = joint_overshoot_undershoot(sf, 5.0, full)
            val, _ = quad(lambda a: overshoot_density(sf, 5.0, a), 0.0, np.inf,
                          limit=400)
            assert val == pytest.approx(ref, rel=1e-8)

    def test_overshoot_window_integral(self, scales):
        sf = scales[("weibull-fit", 1.0)]
        pair = IntervalPair(1.0, 2.0, 0.0, INF)
        ref = joint_overshoot_undershoot(sf, 5.0, pair)
        val, _ = quad(lambda a: overshoot_density(sf, 5.0, a), 1.0, 2.0)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_undershoot_window_integral(self, scales):
        for sf in scales.values():
            pair = IntervalPair(0.0, INF, 1.0, 3.0)
            ref = joint_overshoot_undershoot(sf, 2.0, pair)
            val, _ = quad(lambda b: undershoot_density(sf, 2.0, b), 1.0, 3.0,
                          points=[2.0], limit=200)
            assert val == pytest.approx(ref, rel=1e-8)

    def test_branch_continuity_case1(self, scales):
        eps = 1e-9
        for (name, sigma), sf in scales.items():
            if sigma != 1.0:
                continue
            left = undershoot_density(sf, 5.0, 5.0 - eps)
            right = undershoot_density(sf, 5.0, 5.0 + eps)
            assert abs(left - right) < 1e-8 * max(1.0, abs(left))

    def test_branch_jump_case2(self, scales):
        eps = 1e-9
        for (name, sigma), sf in scales.items():
            if sigma != 0.0:
                continue
            left = undershoot_density(sf, 5.0, 5.0 - eps)
            right = undershoot_density(sf, 5.0, 5.0 + eps)
            assert right - left > 1e-3  # strictly positive jump at b = x

    def test_overshoot_nonincreasing_when_kappa_positive(self, scales):
        sf = scales[("exp1", 0.0)]
        grid = np.linspace(0.1, 6.0, 50)
        vals = [overshoot_density(sf, 5.0, float(a)) for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self, scales):
        sf = scales[("exp1", 1.0)]
        with pytest.raises(DomainError):
            overshoot_density(sf, 5.0, 0.0)
        with pytest.raises(DomainError):
            undershoot_density(sf, 0.0, 1.0)


class TestGrids:
    def test_density_arrays_match_points(self, scales):
        grid = np.linspace(0.1, 8.0, 80)  # undershoot: both branches around x = 5
        for sf in scales.values():
            for fn in (overshoot_density, undershoot_density):
                arr = fn(sf, 5.0, grid)
                assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
                assert type(fn(sf, 5.0, 1.0)) is float
                pts = [fn(sf, 5.0, float(v)) for v in grid]
                assert arr == pytest.approx(pts, rel=1e-14, abs=0)

    def test_domain_errors_on_arrays(self, scales):
        sf = scales[("exp1", 1.0)]
        for fn in (overshoot_density, undershoot_density):
            with pytest.raises(DomainError):
                fn(sf, 5.0, np.array([1.0, 0.0]))

    def test_down_exit_unbounded_on_arrays(self, scales):
        for sf in scales.values():
            xs = np.linspace(0.0, 6.0, 13)
            assert down_exit_unbounded(sf, xs) == pytest.approx(
                [down_exit_unbounded(sf, float(x)) for x in xs], rel=1e-14, abs=1e-16)


class TestLargeQ:
    """sigma = 0 and q near 1e3: zeta x exceeds 709, so e^{zeta x} alone
    overflows; the overshoot laws fold it into their decay exponents."""

    # x -> overshoot_density at a = 0.5 and a = 2, then the joint law on
    # A = (0, inf), B = (0, inf) and on A = (0.5, 2), B = (1, 4.5), as the
    # unfolded product e^{zeta x} * (decays) gives them at q = 300, where
    # that product is still finite
    Q300 = {
        "exp1": {
            4.0: (0.00019117119615345444, 4.265605961348719e-05,
                  0.0003151880174433869, 0.00014617637890570676),
            5.0: (7.14717718093309e-05, 1.594750788990804e-05,
                  0.00011783703043666965, 3.000370327384534e-06),
        },
        "weibull-fit": {
            4.0: (0.0002907990757682052, 0.00012697320372901595,
                  0.0008033746192090394, 0.0002914881778906381),
            5.0: (0.00016569885098558512, 7.957782880247351e-05,
                  0.0005093929723691703, 2.8829191436491365e-06),
        },
    }

    @pytest.mark.parametrize("name", ["exp1", "weibull-fit"])
    def test_q300_values_unchanged(self, name):
        sf = build_scale(builtin_model(name, sigma=0.0), 300.0)
        for x, ref in self.Q300[name].items():
            got = (overshoot_density(sf, x, 0.5), overshoot_density(sf, x, 2.0),
                   joint_overshoot_undershoot(sf, x, IntervalPair(0.0, INF, 0.0, INF)),
                   joint_overshoot_undershoot(sf, x, IntervalPair(0.5, 2.0, 1.0, 4.5)))
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["exp1", "weibull-fit"])
    @pytest.mark.parametrize("x", [4.0, 5.0])
    def test_q1000_finite_and_integrates_to_joint(self, name, x):
        sf = build_scale(builtin_model(name, sigma=0.0), 1000.0)
        assert sf.zeta * x > 709.0  # e^{zeta x} is not a float
        for a in np.geomspace(1e-3, 20.0, 30):
            v = overshoot_density(sf, x, float(a))
            assert math.isfinite(v) and v >= 0.0
        ref = joint_overshoot_undershoot(sf, x, IntervalPair(0.0, INF, 0.0, INF))
        assert math.isfinite(ref) and ref >= 0.0
        val, _ = quad(lambda a: overshoot_density(sf, x, a), 0.0, np.inf, limit=400)
        assert val == pytest.approx(ref, rel=1e-8)


class TestConjecture:
    def test_residuals_reported(self, scales):
        # the transform of W vanishes at every pole of psi: one residual per
        # mixture rate, each within the identities gate
        for (name, sigma), sf in scales.items():
            res = conjecture_residuals(sf)
            assert len(res) == len(sf.model.jumps.eta)
            assert all(0 <= r <= 1e-10 for r in res), (name, sigma, max(res))

    def test_truncation_without_model_is_refused(self):
        # a beta-family truncation carries its beta model, not a phase-type
        # one, and its lead is 1/psi'(zeta), not w0 + sum C, so residuals
        # would not measure the identity
        sf = truncated_coefficients(BETA_BENCHMARK, 0.03, 20).sf
        with pytest.raises(UnsupportedRegime):
            conjecture_residuals(sf)

    def test_truncation_refuses_the_overshoot_laws(self):
        # the laws need lam alpha and eta of a finite real-pole record, and the
        # beta-family's record has infinitely many terms: refused
        sf = truncated_coefficients(BETA_BENCHMARK, 0.03, 20).sf
        laws = (lambda: overshoot_density(sf, 1.0, 0.5),
                lambda: undershoot_density(sf, 1.0, 0.5),
                lambda: joint_overshoot_undershoot(sf, 1.0, IntervalPair(0.0, INF, 0.0, INF)))
        for law in laws:
            with pytest.raises(UnsupportedRegime):
                law()
