"""Negative Wiener-Hopf factor, partial fractions, running-minimum law."""
import mpmath
import numpy as np
import pytest

from phscale.errors import PoleEvaluation, RepeatedRootsDetected
from phscale.meromorphic import BetaFamilyParams, beta_poles, mero_roots
from phscale.models import EXP1, SnLevyModel, builtin_model
from phscale.roots import RootDecomposition, check_clusters, find_roots
from phscale.wiener_hopf import exp_sum, partial_fraction_coefficients, wh_factor_minus

from closed_forms import (
    atom_mass,
    multiplicity_coefficients,
    reconstruct_factor,
    running_min_density,
    simple_coefficients,
)

Q = 0.05


@pytest.fixture(scope="module")
def decomps(models):
    return {k: find_roots(m, Q) for k, m in models.items()}


class TestFactor:
    def test_value_at_zero_is_one(self, decomps):
        for d in decomps.values():
            assert wh_factor_minus(d, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_single_rate_hand_check(self, decomps):
        d = decomps[("exp1", 0.0)]
        xi = float(np.real(d.xi[0]))
        expected = (1.0 + 1.0) / 1.0 * xi / (1.0 + xi)
        assert wh_factor_minus(d, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_case2_limit_is_atom_mass(self, decomps):
        for (name, sigma), d in decomps.items():
            if sigma != 0.0:
                continue
            prod = np.prod([complex(x) for x in d.xi]).real / np.prod(d.poles)
            assert atom_mass(d) == pytest.approx(prod, rel=1e-12)
            assert 0 < atom_mass(d) < 1
            assert wh_factor_minus(d, 1e8) == pytest.approx(
                atom_mass(d), rel=1e-6
            )

    def test_case1_has_no_atom(self, decomps):
        assert atom_mass(decomps[("exp1", 1.0)]) == 0.0

    def test_pole_rejected(self, decomps):
        d = decomps[("exp1", 1.0)]
        with pytest.raises(PoleEvaluation):
            wh_factor_minus(d, -d.xi[0])

    def test_pole_test_is_relative_next_to_a_tiny_root(self):
        # s = -0.9 xi_1 lies 1e-13 from the pole -xi_1 = -1e-12, a tenth of
        # xi_1 in relative terms: a value, not a pole
        d = RootDecomposition(q=1e-12, zeta=0.5, xi=np.array([1e-12, 3.0]),
                              poles=np.array([2.0]))
        s = -0.9e-12
        expected = (s + 2.0) / 2.0 * (1e-12 / (s + 1e-12)) * (3.0 / (s + 3.0))
        assert wh_factor_minus(d, s) == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(wh_factor_minus(d, np.array([s, 1.0]))).all()
        with pytest.raises(PoleEvaluation):
            wh_factor_minus(d, -1e-12)


class TestPartialFractions:
    def test_residues_sum_to_one_minus_atom(self, decomps):
        for d in decomps.values():
            total = partial_fraction_coefficients(d).real.sum()
            assert total + atom_mass(d) == pytest.approx(1.0, abs=1e-8)

    def test_reconstruction(self, decomps):
        for d in decomps.values():
            coeffs = simple_coefficients(d)
            smax = 10.0 * max(float(np.real(x)) for x in d.xi)
            for s in np.geomspace(1e-3, smax, 30):
                direct = wh_factor_minus(d, float(s))
                rebuilt = reconstruct_factor(coeffs, atom_mass(d), float(s))
                assert complex(rebuilt).real == pytest.approx(
                    complex(direct).real, rel=1e-8
                )

    def test_varrho_positive(self, scales):
        for sf in scales.values():
            assert sf.varrho > 0

    def test_density_nonnegative(self, decomps):
        coeffs = simple_coefficients(decomps[("weibull-fit", 1.0)])
        for x in np.linspace(0.01, 20.0, 200):
            assert running_min_density(coeffs, float(x)) >= -1e-12

    def test_density_normalization_exact(self, decomps):
        # each term integrates to A_i^(k), so total mass is the residue sum
        for d in decomps.values():
            mass = partial_fraction_coefficients(d).real.sum() + atom_mass(d)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_density_quadrature(self, decomps):
        from scipy.integrate import quad

        coeffs = simple_coefficients(decomps[("exp1", 1.0)])
        total, _ = quad(lambda x: running_min_density(coeffs, x), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestMultiplicityPath:
    """Repeated roots are reachable only with caller-supplied multiplicities;
    the quotient-differentiation coefficients must still reconstruct the
    rational factor exactly."""

    @pytest.fixture()
    def repeated(self):
        # a valid Case2 shape: two poles, one double root below the first pole
        return RootDecomposition(
            q=Q,
            zeta=0.7,
            xi=np.array([1.0, 1.0]),
            poles=np.array([1.5, 3.0]),
        )

    def test_entry_layout(self, repeated):
        coeffs = multiplicity_coefficients(repeated)
        assert [(e[0], e[1]) for e in coeffs.entries] == [(1.0, 1), (1.0, 2)]

    def test_reconstruction(self, repeated):
        coeffs = multiplicity_coefficients(repeated)
        for s in np.linspace(0.05, 20.0, 50):
            direct = wh_factor_minus(repeated, float(s))
            rebuilt = reconstruct_factor(coeffs, atom_mass(repeated), float(s))
            assert complex(rebuilt).real == pytest.approx(
                complex(direct).real, rel=1e-10
            )

    def test_total_mass(self, repeated):
        coeffs = multiplicity_coefficients(repeated)
        mass = sum(A.real for _, _, A in coeffs.entries) + atom_mass(repeated)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_density_real(self, repeated):
        coeffs = multiplicity_coefficients(repeated)
        vals = [running_min_density(coeffs, x) for x in (0.1, 1.0, 3.0)]
        assert all(np.isfinite(v) for v in vals)

    def test_package_path_takes_simple_roots_only(self, repeated):
        with pytest.raises(RepeatedRootsDetected):
            partial_fraction_coefficients(repeated)

    def test_erlang_complex_pair(self):
        # general PH can give a complex-conjugate root pair; coefficients must
        # combine to a real density
        from phscale.models import PhaseTypeRepr

        jumps = PhaseTypeRepr(alpha=(1.0, 0.0), T=((-3.0, 3.0), (0.0, -3.0)))
        m = SnLevyModel(mu=1.0, sigma=1.0, lam=2.0, jumps=jumps)
        d = find_roots(m, Q)
        coeffs = simple_coefficients(d)
        for x in (0.2, 1.0, 4.0):
            assert running_min_density(coeffs, x) >= -1e-10
        for s in (0.5, 2.0, 10.0):
            assert complex(reconstruct_factor(coeffs, atom_mass(d), s)).real == pytest.approx(
                complex(wh_factor_minus(d, s)).real, rel=1e-8
            )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_atom_mass_at_many_roots():
    # sigma = 0, lam = 1.5 beta-family: the products of 400 roots and of 400
    # poles each overflow, their ratio does not
    p = BetaFamilyParams(0.1, 0.0, alpha_b=3.0, beta_b=1.0, c=0.1, lam=1.5)
    zeta, xi = mero_roots(p, Q, 400)
    d = RootDecomposition(q=Q, zeta=zeta, xi=xi[:400],
                          poles=beta_poles(p, np.arange(1, 401)))
    partial_fraction_coefficients(d)
    assert 0.0 < atom_mass(d) < 1.0


class TestClusters:
    def test_relative_tolerance(self):
        # distinct relative to their size, however small
        check_clusters([1.6e-10, 1.0e-8, 1.5e-8])
        check_clusters([1.0, 1.0 + 1e-7])
        for close in ([1.0, 1.0 + 1e-9], [3e-10, 3e-10 * (1 + 1e-9)], [2.0 + 1j, 2.0 + 1j + 1e-9]):
            with pytest.raises(RepeatedRootsDetected):
                check_clusters(close)

    def test_neighbour_rule_matches_pairwise_rule(self):
        # positive real roots are checked against their sorted neighbours only;
        # the verdict must be that of the rule over all pairs
        def pairwise(x):
            close = np.abs(x[:, None] - x) < 1e-8 * np.maximum(np.abs(x[:, None]), np.abs(x))
            return bool(np.triu(close, 1).any())

        rng = np.random.default_rng(0)
        verdicts = []
        for _ in range(400):
            gaps = 10.0 ** rng.uniform(-7.99, 0.0, rng.integers(1, 40))
            if rng.random() < 0.5:  # one gap at the tolerance, either side of it
                gaps[rng.integers(gaps.size)] = 1e-8 * (1.0 + rng.uniform(-1e-3, 1e-3))
            x = 10.0 ** rng.uniform(-10, 3) * np.cumprod(np.append(1.0, 1.0 + gaps))
            expected = pairwise(x)
            for order in (x, rng.permutation(x)):
                try:
                    check_clusters(order)
                    raised = False
                except RepeatedRootsDetected:
                    raised = True
                assert raised == expected
            verdicts.append(expected)
        assert 0.1 < np.mean(verdicts) < 0.5

    def test_clustered_decomposition_raises(self):
        d = RootDecomposition(q=Q, zeta=0.7, xi=np.array([1.0, 1.0 + 1e-10]),
                              poles=np.array([1.5, 3.0]))
        with pytest.raises(RepeatedRootsDetected):
            partial_fraction_coefficients(d)


class TestExpSum:
    # unsorted points: 0, a tiny x where every |rate x| < ln 2, and points
    # where 1e4 x and 300 x pass the exponent floor -708
    XS = np.array([0.5, 0.0, 1e-12, 3.0, 0.07, 80.0])
    WEIGHTS = np.array([[1.0, -2.0, 0.3], [0.5, 1.0, -4.0], [-3.0, 0.25, 1.0],
                        [2.0, -1.0, 0.5], [1e-3, 7.0, -1.0]])

    def _reference(self, rates, weights, flags):
        with mpmath.workdps(30):
            terms = [[[w * (mpmath.exp(-mpmath.mpf(float(r)) * float(x)) - f)
                       for r, w in zip(rates, weights[:, c])]
                      for c, f in enumerate(flags)] for x in self.XS]
            want = np.array([[float(mpmath.fsum(col)) for col in row] for row in terms])
            size = np.array([[float(mpmath.fsum(map(abs, col))) for col in row] for row in terms])
        return want, size

    def test_columns_match_mpmath(self):
        rates = np.array([1e-3, 0.5, 2.0, 300.0, 1e4])
        ref = {f: self._reference(rates, self.WEIGHTS, [f] * 3) for f in (False, True)}
        for minus_one in (0, 2, 3):  # the first minus_one columns read e^{-rx} - 1
            got = exp_sum(rates, self.WEIGHTS, self.XS, minus_one)
            assert got.shape == (self.XS.size, 3)
            for c in range(3):
                want, size = ref[c < minus_one]
                assert np.all(np.abs(got[:, c] - want[:, c]) <= 1e-15 * size[:, c] + 1e-300)
        for f, (want, size) in ref.items():  # one weight vector gives one column
            for c in range(3):
                col = exp_sum(rates, self.WEIGHTS[:, c], self.XS, f)
                assert col.shape == self.XS.shape
                assert np.all(np.abs(col - want[:, c]) <= 1e-15 * size[:, c] + 1e-300)

    def test_complex_pair(self):
        rates = np.array([1.0 - 2.0j, 1.0 + 2.0j, 3.0])
        weights = np.array([[0.5 + 1.0j, 2.0], [0.5 - 1.0j, 2.0], [1.0, -1.0]])
        got = exp_sum(rates, weights, self.XS, 1)
        assert np.abs(got.imag).max() <= 1e-15 * np.abs(got.real).max()
        for x, row in zip(self.XS, got):
            e = np.exp(-rates * x)
            np.testing.assert_allclose(row, [weights[:, 0] @ (e - 1), weights[:, 1] @ e],
                                       rtol=1e-14, atol=1e-15)

    def test_exponent_floor(self):
        # e^{-708.2} = 2.7e-308 is taken as 0; e^{-707} is kept
        assert exp_sum([708.2, 707.0], [1.0, 0.0], np.array([1.0]))[0] == 0.0
        assert exp_sum([708.2, 707.0], [0.0, 1.0], np.array([1.0]))[0] == np.exp(-707.0)
        assert exp_sum([708.2], [1.0], np.array([1.0]), True)[0] == -1.0
