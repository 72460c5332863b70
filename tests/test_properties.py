"""Property-based invariants over randomly generated hyperexponential models."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phscale.fluctuation import IntervalPair, up_exit
from phscale.models import HyperExpDist, SnLevyModel
from phscale.roots import find_roots
from phscale.scale import build_scale
from phscale.wiener_hopf import wh_factor_minus

from closed_forms import ExpPolySum, atom_mass, reconstruct_factor, rho, simple_coefficients

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def hyperexp_models(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=m, max_size=m
        )
    )
    total = sum(weights)
    p = tuple(w / total for w in weights)
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=50.0),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    eta = tuple(sorted(raw))
    # require well-separated rates so roots stay well-conditioned
    assume(all(b / a > 1.2 for a, b in zip(eta, eta[1:])))
    sigma = draw(st.sampled_from([0.0, 1.0]))
    mu = draw(st.floats(min_value=0.5, max_value=10.0))
    lam = draw(st.floats(min_value=0.1, max_value=10.0))
    return SnLevyModel(mu=mu, sigma=sigma, lam=lam, jumps=HyperExpDist(p=p, eta=eta))


@st.composite
def quotients(draw):
    q = draw(st.floats(min_value=0.01, max_value=1.0))
    return q


class TestRootStructure:
    @given(model=hyperexp_models(), q=quotients())
    @settings(**SETTINGS)
    def test_interlacing_and_count(self, model, q):
        d = find_roots(model, q)
        eta = sorted(model.jumps.eta)
        xis = sorted(float(np.real(x)) for x in d.xi)
        m = len(eta)
        expected = m + 1 if model.sigma > 0 else m
        assert len(xis) == expected
        # each of the first m roots sits below its pole
        for i in range(m):
            assert xis[i] < eta[i] + 1e-9
        assert d.zeta > 0
        assert abs(model.laplace_exponent(d.zeta) - q) < 1e-8 * max(1.0, q)

    @given(model=hyperexp_models(), q=quotients())
    @settings(**SETTINGS)
    def test_wh_factor_normalized_and_reconstructs(self, model, q):
        d = find_roots(model, q)
        coeffs = simple_coefficients(d)
        assert wh_factor_minus(d, 0.0) == pytest.approx(1.0, abs=1e-9)
        total = sum(A.real for _, _, A in coeffs.entries) + atom_mass(d)
        assert total == pytest.approx(1.0, abs=1e-7)
        for s in (0.1, 1.0, 10.0):
            assert complex(reconstruct_factor(coeffs, atom_mass(d), s)).real == pytest.approx(
                complex(wh_factor_minus(d, s)).real, rel=1e-6
            )


class TestScaleInvariants:
    @given(model=hyperexp_models(), q=quotients())
    @settings(**SETTINGS)
    def test_w_positive_nondecreasing(self, model, q):
        sf = build_scale(model, q)
        grid = np.linspace(0.0, 5.0, 21)
        vals = [sf.w(float(x)) for x in grid]
        assert all(v >= -1e-12 for v in vals)
        assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))

    @given(model=hyperexp_models(), q=quotients())
    @settings(**SETTINGS)
    def test_boundary_conventions(self, model, q):
        sf = build_scale(model, q)
        if model.sigma > 0:
            assert sf.w(0.0) == pytest.approx(0.0, abs=1e-9)
        else:
            assert sf.w(0.0) == pytest.approx(1.0 / model.mu, rel=1e-8)
        assert sf.z(0.0) == 1.0

    @given(model=hyperexp_models(), q=quotients(),
           x=st.floats(min_value=0.0, max_value=4.0))
    @settings(**SETTINGS)
    def test_up_exit_in_unit_interval(self, model, q, x):
        sf = build_scale(model, q)
        u = up_exit(sf, float(x), 4.0)
        assert -1e-10 <= u <= 1.0 + 1e-10


class TestExpPolySum:
    @given(
        rates=st.lists(
            st.floats(min_value=-2.0, max_value=5.0), min_size=1, max_size=3
        ),
        coefs=st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=3
        ),
        x=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(**SETTINGS)
    def test_derivative_matches_finite_difference(self, rates, coefs, x):
        n = min(len(rates), len(coefs))
        terms = [(r, np.array([c, 0.5 * c])) for r, c in zip(rates[:n], coefs[:n])]
        f = ExpPolySum(terms)
        d = f.derivative()
        h = 1e-6
        fd = (complex(f(x + h)) - complex(f(x - h))).real / (2 * h)
        assert complex(d(x)).real == pytest.approx(fd, abs=1e-4 * (1 + abs(fd)))

    @given(
        # exactly zero hits the polynomial branch; otherwise keep the rate
        # away from zero where the division recurrence loses meaning
        rate=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.05, max_value=4.0),
            st.floats(min_value=-2.0, max_value=-0.05),
        ),
        c=st.floats(min_value=-3.0, max_value=3.0),
        x=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(**SETTINGS)
    def test_integral_fundamental_theorem(self, rate, c, x):
        f = ExpPolySum([(rate, np.array([c, c]))])
        h = 1e-5
        fd = (complex(f.integral0(x + h)) - complex(f.integral0(x))).real / h
        assert fd == pytest.approx(complex(f(x + h / 2)).real, abs=1e-4 * (1 + abs(fd)))


class TestRhoAdditivity:
    @given(
        split=st.floats(min_value=0.2, max_value=2.0),
        hi=st.floats(min_value=2.5, max_value=6.0),
        K=st.floats(min_value=-1.0, max_value=0.5),
    )
    @settings(**SETTINGS)
    def test_window_additivity(self, split, hi, K):
        jumps = HyperExpDist(p=(0.4, 0.6), eta=(0.8, 3.0))
        left = rho(K, IntervalPair(0.1, 1.0, 0.0, split), jumps, 2.0)
        right = rho(K, IntervalPair(0.1, 1.0, split, hi), jumps, 2.0)
        whole = rho(K, IntervalPair(0.1, 1.0, 0.0, hi), jumps, 2.0)
        assert left + right == pytest.approx(whole, rel=1e-10, abs=1e-12)
