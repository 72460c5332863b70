"""Closed-form scale functions: boundary values, identities, calculus."""
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from phscale.errors import BracketingFailure, DomainError, RepeatedRootsDetected
from phscale.fluctuation import down_exit_unbounded, overshoot_density, undershoot_density
from phscale.meromorphic import (
    BETA_BENCHMARK,
    BETA_BENCHMARK_Q,
    truncated_coefficients,
    w_bounds,
    w_prime_bounds,
    z_bounds,
)
from phscale.models import EXP1, HyperExpDist, PhaseTypeRepr, SnLevyModel, builtin_model
import phscale.scale
from phscale.scale import assemble, boundary_identities, build_scale

from closed_forms import ExpPolySum, loop_scale, mp_residue_terms, mp_scale

Q = 0.05


class TestExpPolySum:
    @pytest.fixture()
    def f(self):
        # (2 + 3x) e^{-x} + (1 - x + x^2) e^{-0.3 x} + 0.5
        return ExpPolySum([
            (1.0, [2.0, 3.0]),
            (0.3, [1.0, -1.0, 1.0]),
            (0.0, [0.5]),
        ])

    def test_evaluation(self, f):
        x = 1.7
        expected = (
            (2 + 3 * x) * math.exp(-x)
            + (1 - x + x**2) * math.exp(-0.3 * x)
            + 0.5
        )
        assert f.eval_real(x) == pytest.approx(expected, rel=1e-14)

    def test_derivative_vs_finite_difference(self, f):
        g = f.derivative()
        h = 1e-6
        for x in (0.1, 1.0, 3.0):
            fd = (f.eval_real(x + h) - f.eval_real(x - h)) / (2 * h)
            assert g.eval_real(x) == pytest.approx(fd, rel=1e-8)

    def test_integral_vs_quadrature(self, f):
        for x in (0.5, 2.0, 7.0):
            ref, _ = quad(f.eval_real, 0.0, x)
            assert complex(f.integral0(x)).real == pytest.approx(ref, rel=1e-10)

    def test_integral_at_zero(self, f):
        assert complex(f.integral0(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_pair_is_real(self):
        f = ExpPolySum([(1 + 2j, [0.5 - 0.25j]), (1 - 2j, [0.5 + 0.25j])])
        for x in (0.0, 0.7, 3.0):
            v = f.eval_real(x)  # would raise on an imaginary residue
            assert np.isfinite(v)


class TestBoundaryValues:
    def test_case2_exact(self):
        sf = build_scale(builtin_model("exp1", sigma=0.0), Q)
        assert sf.w0 == pytest.approx(0.2, abs=1e-12)
        assert sf.wp0 == pytest.approx(0.202, abs=1e-12)
        assert sf.w(0.0) == pytest.approx(0.2, abs=1e-9)

    def test_case1_exact(self):
        sf = build_scale(builtin_model("exp1", sigma=1.0), Q)
        assert sf.w0 == pytest.approx(0.0, abs=1e-12)
        assert sf.wp0 == pytest.approx(2.0, abs=1e-12)
        assert sf.w(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_wp0_is_small_x_limit(self, scales):
        for sf in scales.values():
            assert sf.w_prime(1e-9) == pytest.approx(sf.wp0, rel=1e-6)


class TestEvaluation:
    def test_zero_below_origin(self, scales):
        for sf in scales.values():
            assert sf.w(-1.0) == 0.0
            assert sf.z(-1.0) == 1.0
            assert sf.z(0.0) == 1.0

    def test_w_nondecreasing(self, scales):
        grid = np.linspace(0.0, 10.0, 400)
        for sf in scales.values():
            vals = [sf.w(float(x)) for x in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tilted_monotone_and_bounded(self, scales):
        grid = np.linspace(0.0, 30.0, 500)
        for sf in scales.values():
            vals = [sf.w_tilted(float(x)) for x in grid]
            limit = 1.0 / sf.psi_prime_zeta
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= limit * (1 + 1e-10) for v in vals)

    def test_asymptotics(self, scales):
        # the approach speed is e^{-(zeta+xi_1)x}; the Pareto fit's smallest
        # root ~6.6e-5 needs a larger x to damp below 1e-6
        for (name, sigma), sf in scales.items():
            x = 400.0 if name == "pareto-fit" else 200.0
            assert sf.w_tilted(x) * sf.psi_prime_zeta == pytest.approx(
                1.0, abs=1e-6
            )

    def test_w_prime_finite_difference(self, scales):
        h = 1e-6
        for sf in scales.values():
            for x in np.linspace(0.1, 5.0, 12):
                fd = (sf.w(float(x) + h) - sf.w(float(x) - h)) / (2 * h)
                assert sf.w_prime(float(x)) == pytest.approx(fd, rel=1e-6)

    def test_z_prime_is_q_w(self, scales):
        h = 1e-6
        for sf in scales.values():
            for x in (0.5, 2.0, 4.0):
                fd = (sf.z(x + h) - sf.z(x - h)) / (2 * h)
                assert fd == pytest.approx(Q * sf.w(x), rel=1e-6)

    def test_z_quadrature(self, scales):
        sf = scales[("weibull-fit", 1.0)]
        ref, _ = quad(sf.w, 0.0, 3.0)
        assert sf.z(3.0) == pytest.approx(1.0 + Q * ref, rel=1e-8)

    def test_log_w_overflow_safe(self, scales):
        sf = scales[("exp1", 1.0)]
        x = 10000.0  # e^{zeta x} would overflow
        logw = sf.log_w(x)
        assert logw == pytest.approx(
            sf.zeta * x - math.log(sf.psi_prime_zeta), rel=1e-9
        )
        assert sf.w(x) == math.inf

    def test_log_w_where_only_w_overflows(self):
        # lead ~ 1/mu = 1e5, so lead e^{zeta x} passes the float range at
        # zeta x ~ 698, below the envelope guard; log W stays finite there,
        # and W is inf without an overflow warning
        sf = build_scale(builtin_model("exp1", sigma=0.0, mu=1e-5, lam=1e-6), Q)
        x = 0.1399
        assert sf.zeta * x < 700.0
        assert sf.w(x) == math.inf
        assert sf.log_w(x) == pytest.approx(sf.zeta * x + math.log(sf.lead), rel=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    def test_log_w_at_zero(self, scales, sigma):
        # log w0 exactly, also inside a grid: -inf for sigma > 0, -log mu else
        sf = scales[("exp1", sigma)]
        expected = -math.inf if sigma > 0 else math.log(sf.w0)
        assert sf.log_w(0.0) == expected
        grid = sf.log_w(np.array([0.0, 1.0]))
        assert grid[0] == expected
        assert grid[1] == pytest.approx(math.log(sf.w(1.0)), rel=1e-12)

    @pytest.mark.parametrize("name", ["exp1", "weibull-fit", "pareto-fit"])
    def test_linear_at_small_x(self, scales, name):
        # sigma > 0: W(x) = W'(0) x (1 + O(x)), with the O(x) term a few x;
        # W and log W keep every digit of it as x -> 0
        sf = scales[(name, 1.0)]
        xs = np.array([1e-15, 1e-12, 1e-8])
        bound = 10 * xs + 1e-13
        assert np.all(np.abs(sf.w(xs) / (sf.wp0 * xs) - 1.0) <= bound)
        assert np.all(np.abs(sf.log_w(xs) - np.log(sf.wp0 * xs)) <= bound)

    def test_domain_errors(self, scales):
        sf = scales[("exp1", 1.0)]
        with pytest.raises(DomainError):
            sf.w_prime(0.0)
        with pytest.raises(DomainError):
            sf.w_tilted(-1.0)


class TestIdentities:
    def test_laplace_transform(self, scales, models):
        for key, sf in scales.items():
            m = models[key]
            for s in np.linspace(sf.zeta + 0.5, sf.zeta + 10.0, 20):
                target = 1.0 / (m.laplace_exponent(float(s)) - Q)
                assert sf.laplace_transform_w(float(s)) == pytest.approx(
                    target, rel=1e-8
                )

    def test_transform_domain(self, scales):
        sf = scales[("exp1", 1.0)]
        with pytest.raises(DomainError):
            sf.laplace_transform_w(sf.zeta)

    def test_sum_c(self, scales):
        for sf in scales.values():
            assert sf.sum_c_residual() < 1e-8

    def test_sum_c_case2_without_cancellation(self):
        # psi'(zeta) within 1e-8 of mu: the case-2 target 1/psi'(zeta) - 1/mu
        # is formed as lam E[Y e^{-zeta Y}] / (mu psi'(zeta)), not by subtraction
        jumps = HyperExpDist(p=(1e-3, 0.999), eta=(1e-8, 2e-8))
        sf = build_scale(SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=jumps), 0.04)
        assert sf.sum_c_residual() < 1e-14

    def test_zeta_identity(self, scales):
        for sf in scales.values():
            rep = boundary_identities(sf)
            assert rep["zeta_identity_rel_err"] < 1e-8

    def test_complete_monotonicity_surrogate(self, scales):
        # distinct real roots: the tilted derivative is a positive mixture of
        # decaying exponentials, i.e. every C weight is nonnegative
        for sf in scales.values():
            assert sf.C is not None
            assert all(c >= 0 for c in sf.C)

    def test_w_prime_convex(self, scales):
        grid = np.linspace(0.05, 5.0, 200)
        for sf in scales.values():
            vals = np.array([sf.w_prime(float(x)) for x in grid])
            assert np.all(np.diff(vals, 2) >= -1e-9 * np.max(vals))

    def test_no_jump_diffusion(self):
        # lam = 0 degenerate: Brownian motion with drift still assembles
        m = SnLevyModel(mu=1.0, sigma=1.0, lam=0.0, jumps=EXP1)
        sf = build_scale(m, Q)
        rep = boundary_identities(sf)
        assert rep["zeta_identity_rel_err"] < 1e-8
        for s in (sf.zeta + 1.0, sf.zeta + 5.0):
            assert sf.laplace_transform_w(s) == pytest.approx(
                1.0 / (m.laplace_exponent(s) - Q), rel=1e-8
            )


@pytest.mark.parametrize("name", ("exp1", "weibull-fit", "pareto-fit"))
@pytest.mark.parametrize("sigma", (1e-6, 1e-8))
@pytest.mark.parametrize("q", (1e-3, 0.05, 100.0))
def test_small_sigma_matches_sigma_zero(name, sigma, q):
    # the outer root lies near eta_n + 2 mu / sigma^2 (1e13 and 1e17 here),
    # where its term in W and Z has vanished
    x = np.array([0.5, 1.0, 3.0])
    limit = build_scale(builtin_model(name, sigma=0.0), q)
    sf = build_scale(builtin_model(name, sigma=sigma), q)
    assert sf.w(x) == pytest.approx(limit.w(x), rel=1e-9)
    assert sf.z(x) == pytest.approx(limit.z(x), rel=1e-9)


def test_build_scale_rejects_nonpositive_q():
    with pytest.raises(DomainError):
        build_scale(builtin_model("exp1"), 0.0)


def test_roots_far_below_one_are_not_clustered():
    # interlaced roots 1.6e-10 and 1.0e-8 around the pole 1e-8 are distinct
    # relative to their size; an absolute 1e-8 tolerance flagged them
    jumps = HyperExpDist(p=(1e-3, 0.999), eta=(1e-8, 2e-8))
    for sigma in (0.0, 1.0):
        sf = build_scale(SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=jumps), 0.04)
        assert sf.xi[0] < 1e-9 < sf.xi[1] < 2e-8
        rep = boundary_identities(sf)
        assert rep["sum_c_rel_err"] < 1e-8
        assert rep["zeta_identity_rel_err"] < 1e-8


BUILTINS = ("exp1", "weibull-fit", "pareto-fit")
# a 3-phase Coxian law and an Erlang-2 law; both give a complex root pair
COXIAN3 = PhaseTypeRepr(alpha=(1.0, 0.0, 0.0),
                        T=((-2.0, 1.2, 0.0), (0.0, -3.0, 1.5), (0.0, 0.0, -4.0)))
ERLANG2 = SnLevyModel(mu=1.0, sigma=1.0, lam=2.0,
                      jumps=PhaseTypeRepr(alpha=(1.0, 0.0), T=((-3.0, 3.0), (0.0, -3.0))))
ARRAY_CASES = (
    [pytest.param(builtin_model(n, sigma=s), q, id=f"{n}-s{s:g}-q{q:g}")
     for n in BUILTINS for s in (0.0, 1.0) for q in (1e-3, 0.05, 100.0)]
    + [pytest.param(SnLevyModel(mu=5.0, sigma=s, lam=5.0, jumps=COXIAN3), Q,
                    id=f"coxian3-s{s:g}") for s in (0.0, 1.0)]
    + [pytest.param(ERLANG2, Q, id="erlang2-complex-pair")]
)
GRID = np.linspace(0.0, 5.0, 401)


# every evaluator of points, each as (scale function, beta-family truncation, points)
POINT_EVALUATORS = pytest.mark.parametrize("evaluate", [
    lambda sf, tm, x: sf.w(x),
    lambda sf, tm, x: sf.w_tilted(x),
    lambda sf, tm, x: sf.log_w(x),
    lambda sf, tm, x: sf.w_prime(x),
    lambda sf, tm, x: sf.z(x),
    lambda sf, tm, x: sf.laplace_transform_w(sf.zeta + 1.0 + x),
    lambda sf, tm, x: w_bounds(tm, x),
    lambda sf, tm, x: z_bounds(tm, x),
    lambda sf, tm, x: w_prime_bounds(tm, x),
    lambda sf, tm, x: down_exit_unbounded(sf, x),
    lambda sf, tm, x: overshoot_density(sf, 1.0, x),
    lambda sf, tm, x: undershoot_density(sf, 1.0, x),
], ids=("w", "w_tilted", "log_w", "w_prime", "z", "laplace_transform_w",
        "w_bounds", "z_bounds", "w_prime_bounds", "down_exit_unbounded",
        "overshoot_density", "undershoot_density"))


class TestArrayEvaluation:
    @pytest.mark.parametrize("model, q", ARRAY_CASES)
    def test_matches_loop_reference(self, model, q):
        sf = build_scale(model, q)
        ref = loop_scale(sf)
        for name, pts in (("w_tilted", GRID), ("w", GRID), ("w_prime", GRID[1:]),
                          ("z", GRID), ("laplace_transform_w", sf.zeta + 0.5 + GRID)):
            got = getattr(sf, name)(pts)
            want = np.array([ref[name](float(v)) for v in pts])
            assert got.shape == pts.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    def test_complex_pair_present(self):
        assert np.iscomplexobj(build_scale(ERLANG2, Q).xi)

    def test_float_in_float_out(self, scales):
        for sf in scales.values():
            for name, v in (("w_tilted", 1.5), ("w", 1.5), ("log_w", 1.5), ("w_prime", 1.5),
                            ("z", 1.5), ("laplace_transform_w", sf.zeta + 1.5)):
                one = getattr(sf, name)(v)
                many = getattr(sf, name)(np.array([v, 2 * v]))
                assert type(one) is float, name
                assert isinstance(many, np.ndarray) and many.shape == (2,)
                assert many[0] == pytest.approx(one, rel=1e-15, abs=0)

    def test_conventions_at_and_below_zero(self, scales):
        xs = np.array([-2.0, -0.5, 0.0, 1.0])
        for sf in scales.values():
            assert sf.w(xs)[:2].tolist() == [0.0, 0.0]
            assert sf.w(xs)[2] == pytest.approx(sf.w0, abs=1e-12)
            assert sf.z(xs)[:3].tolist() == [1.0, 1.0, 1.0]
            for name, pts in (("w_prime", xs[2:]), ("w_tilted", xs), ("log_w", xs),
                              ("laplace_transform_w", sf.zeta + xs)):
                with pytest.raises(DomainError):
                    getattr(sf, name)(pts)

    @POINT_EVALUATORS
    def test_nan_point_raises(self, scales, evaluate):
        tm = truncated_coefficients(BETA_BENCHMARK, BETA_BENCHMARK_Q, 10)
        with pytest.raises(DomainError):
            evaluate(scales[("exp1", 1.0)], tm, np.array([math.nan, 1.0]))

    @POINT_EVALUATORS
    def test_points_of_more_than_one_dimension_raise(self, scales, evaluate):
        tm = truncated_coefficients(BETA_BENCHMARK, BETA_BENCHMARK_Q, 10)
        with pytest.raises(DomainError, match="1-d"):
            evaluate(scales[("weibull-fit", 1.0)], tm, np.ones((2, 3)))

    def test_overflow_guard_on_arrays(self, scales):
        sf = scales[("exp1", 1.0)]
        xs = np.array([1.0, 1e4])  # e^{zeta x} overflows at the second point
        for name in ("w", "w_prime", "z"):
            vals = getattr(sf, name)(xs)
            assert math.isfinite(vals[0]) and vals[1] == math.inf, name

    def test_finite_past_the_guard(self):
        # zeta = 184.39 and lead = 0.2: W, W' and Z stay below the float range
        # a little past zeta x = 700, and only W' at zeta x = 709 exceeds it
        sf = build_scale(builtin_model("exp1", sigma=0.0), 917.0)
        xs = np.array([701.0, 705.0, 709.0]) / sf.zeta
        w, wp, z = sf.w(xs), sf.w_prime(xs), sf.z(xs)
        np.testing.assert_allclose(w, np.exp(sf.log_w(xs)), rtol=1e-12)
        np.testing.assert_allclose(z, (sf.q / sf.zeta) * w, rtol=1e-12)
        np.testing.assert_allclose(wp[:2], sf.zeta * w[:2], rtol=1e-12)
        assert wp[2] == math.inf
        assert sf.w(float(xs[0])) == w[0]

    @staticmethod
    def _reassemble(sf, decomp):
        return assemble(decomp, sf.model, sf.psi_prime_zeta)

    @pytest.mark.parametrize("model", [pytest.param(ERLANG2, id="erlang2"), pytest.param(
        SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=COXIAN3), id="coxian3-s0")])
    def test_root_off_its_conjugate_raises_in_assembly(self, model):
        # one root of the conjugate pair moved by 1e-3j: the roots are still
        # distinct, but sum A_i xi_i is no longer real
        sf = build_scale(model, Q)
        xi = sf.xi.copy()
        xi[np.flatnonzero(xi.imag)[0]] += 1e-3j
        with pytest.raises(RepeatedRootsDetected, match="varrho"):
            self._reassemble(sf, dataclasses.replace(sf.decomp, xi=xi))
        assert self._reassemble(sf, sf.decomp).lead == sf.lead

    @pytest.mark.parametrize("ppz", (0.0, -1.0, math.nan, math.inf))
    def test_psi_prime_zeta_not_positive_raises_in_assembly(self, ppz):
        # convexity gives psi'(zeta) >= q/zeta > 0 at the positive root
        sf = build_scale(builtin_model("exp1", sigma=1.0), Q)
        with pytest.raises(BracketingFailure, match="psi'"):
            self._reassemble(dataclasses.replace(sf, psi_prime_zeta=ppz), sf.decomp)

    def test_lead_not_real_raises_in_assembly(self, monkeypatch):
        # residues whose imaginary parts cancel in sum A_i xi_i but not in
        # sum C_i reach the second realness check
        sf = build_scale(builtin_model("exp1", sigma=1.0), Q)
        x1, x2 = sf.xi
        monkeypatch.setattr(phscale.scale, "partial_fraction_coefficients",
                            lambda d: sf.A + 1e-3j * np.array([x2, -x1]))
        with pytest.raises(RepeatedRootsDetected, match="leading coefficient"):
            self._reassemble(sf, sf.decomp)

    def test_imaginary_residue_raises_elementwise(self):
        sf = build_scale(ERLANG2, Q)
        # break the conjugate symmetry of one weight: the sum is no longer real
        bad = dataclasses.replace(sf, C=sf.C + np.array([0.0, 1e-3j, 0.0]))
        for name, pts in (("w", GRID), ("w_prime", GRID[1:]), ("z", GRID)):
            with pytest.raises(RepeatedRootsDetected):
                getattr(bad, name)(pts)


class TestResidues:
    """The residues of W, lead = 1/psi'(zeta) and C_i = -1/psi'(-xi_i),
    against 50-digit residues at 50-digit roots."""

    # a root next to a pole is accurate relative to its size, not to its
    # offset from the pole, and psi' there keeps only the offset's digits
    OFFSET = pytest.mark.xfail(strict=True, reason="root-pole offset (ROADMAP item 3)")

    @pytest.mark.parametrize("q", (1e-3, 0.05, 100.0))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("name", ["exp1", pytest.param("weibull-fit", marks=OFFSET),
                                      pytest.param("pareto-fit", marks=OFFSET)])
    def test_c_matches_mpmath(self, name, sigma, q):
        model = builtin_model(name, sigma=sigma)
        sf = build_scale(model, q)
        with mpmath.workdps(50):
            (_, lead), *terms = mp_residue_terms(model, q)
            rel = [abs(float(v / r - 1)) for v, r in
                   zip([sf.lead, *sf.C], [lead, *(-c for _, c in terms)])]
        assert max(rel) <= 1e-13, rel


class TestOneTile:
    """W, W' and Z from the one exponential tile of ``exp_sum``, against
    50-digit residue sums."""

    XS = np.array([1e-15, 1e-8, 0.5, 4.0])

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("name", BUILTINS)
    def test_matches_mpmath(self, name, sigma):
        model = builtin_model(name, sigma=sigma)
        sf = build_scale(model, Q)
        with mpmath.workdps(50):
            _, w, z = mp_scale(model, Q)
            terms = mp_residue_terms(model, Q)
            want = {
                "w": [w(x) for x in self.XS],
                "w_prime": [mpmath.re(mpmath.fsum(c * r * mpmath.exp(r * x) for r, c in terms))
                            for x in self.XS],
                "z": [z(x) for x in self.XS],
            }
        got = dict(zip(want, sf.evaluate(self.XS)))
        for key, ref in want.items():
            for vals in (got[key], getattr(sf, key)(self.XS)):
                rel = [abs(float(v / r - 1)) for v, r in zip(vals, ref)]
                assert max(rel) <= 1e-13, (key, rel)

    def test_a_cell_passes_the_exponent_floor(self):
        # weibull-fit's largest root times x = 4 is past 708, where the tile
        # holds 0 for e^{-xi x}: the cells of test_matches_mpmath include it
        assert build_scale(builtin_model("weibull-fit", sigma=1.0), Q).xi.max() * 4.0 > 708.0

    def test_evaluate_matches_the_single_evaluators(self, scales):
        xs = np.array([-1.0, 0.0, 1e-9, 0.5, 3.0])
        for sf in scales.values():
            w, wp, z = sf.evaluate(xs)
            np.testing.assert_allclose(w, sf.w(xs), rtol=1e-15, atol=0)
            # Z and W' are the columns of evaluate at the same points, bit for bit
            assert np.array_equal(z, sf.z(xs))
            assert np.array_equal(sf.evaluate(xs[2:])[1], sf.w_prime(xs[2:]))
            assert wp[:2].tolist() == [0.0, sf.wp0]
            assert all(type(v) is float for v in sf.evaluate(0.5))
