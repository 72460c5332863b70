"""Negative Wiener-Hopf factor, partial fractions, running-minimum law."""
import numpy as np
import pytest

from phscale.errors import PoleEvaluation
from phscale.models import CASE1, CASE2, EXP1, SnLevyModel, builtin_model
from phscale.roots import RootDecomposition, find_roots
from phscale.wiener_hopf import partial_fraction_coefficients, wh_factor_minus

from closed_forms import reconstruct_factor, running_min_density

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
        xi = float(np.real(d.xis[0]))
        expected = (1.0 + 1.0) / 1.0 * xi / (1.0 + xi)
        assert wh_factor_minus(d, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_case2_limit_is_atom_mass(self, decomps):
        for (name, sigma), d in decomps.items():
            if sigma != 0.0:
                continue
            coeffs = partial_fraction_coefficients(d)
            prod = np.prod([complex(x) for x in d.xis]).real / np.prod(d.poles)
            assert coeffs.atom_mass == pytest.approx(prod, rel=1e-12)
            assert 0 < coeffs.atom_mass < 1
            assert wh_factor_minus(d, 1e8) == pytest.approx(
                coeffs.atom_mass, rel=1e-6
            )

    def test_case1_has_no_atom(self, decomps):
        assert partial_fraction_coefficients(decomps[("exp1", 1.0)]).atom_mass == 0.0

    def test_pole_rejected(self, decomps):
        d = decomps[("exp1", 1.0)]
        with pytest.raises(PoleEvaluation):
            wh_factor_minus(d, -d.xis[0])


class TestPartialFractions:
    def test_residues_sum_to_one_minus_atom(self, decomps):
        for d in decomps.values():
            coeffs = partial_fraction_coefficients(d)
            total = sum(A.real for _, _, A in coeffs.entries)
            assert total + coeffs.atom_mass == pytest.approx(1.0, abs=1e-8)

    def test_reconstruction(self, decomps):
        for d in decomps.values():
            coeffs = partial_fraction_coefficients(d)
            smax = 10.0 * max(float(np.real(x)) for x in d.xis)
            for s in np.geomspace(1e-3, smax, 30):
                direct = wh_factor_minus(d, float(s))
                rebuilt = reconstruct_factor(coeffs, float(s))
                assert complex(rebuilt).real == pytest.approx(
                    complex(direct).real, rel=1e-8
                )

    def test_varrho_positive(self, decomps):
        for d in decomps.values():
            assert partial_fraction_coefficients(d).varrho > 0

    def test_density_nonnegative(self, decomps):
        coeffs = partial_fraction_coefficients(decomps[("weibull-fit", 1.0)])
        for x in np.linspace(0.01, 20.0, 200):
            assert running_min_density(coeffs, float(x)) >= -1e-12

    def test_density_normalization_exact(self, decomps):
        # each term integrates to A_i^(k), so total mass is the residue sum
        for d in decomps.values():
            coeffs = partial_fraction_coefficients(d)
            mass = sum(A.real for _, _, A in coeffs.entries) + coeffs.atom_mass
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_density_quadrature(self, decomps):
        from scipy.integrate import quad

        coeffs = partial_fraction_coefficients(decomps[("exp1", 1.0)])
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
            neg_roots=((1.0, 2),),
            poles=(1.5, 3.0),
            case=CASE2,
        )

    def test_entry_layout(self, repeated):
        coeffs = partial_fraction_coefficients(repeated)
        assert [(e[0], e[1]) for e in coeffs.entries] == [(1.0, 1), (1.0, 2)]

    def test_reconstruction(self, repeated):
        coeffs = partial_fraction_coefficients(repeated)
        for s in np.linspace(0.05, 20.0, 50):
            direct = wh_factor_minus(repeated, float(s))
            rebuilt = reconstruct_factor(coeffs, float(s))
            assert complex(rebuilt).real == pytest.approx(
                complex(direct).real, rel=1e-10
            )

    def test_total_mass(self, repeated):
        coeffs = partial_fraction_coefficients(repeated)
        mass = sum(A.real for _, _, A in coeffs.entries) + coeffs.atom_mass
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_density_real(self, repeated):
        coeffs = partial_fraction_coefficients(repeated)
        vals = [running_min_density(coeffs, x) for x in (0.1, 1.0, 3.0)]
        assert all(np.isfinite(v) for v in vals)

    def test_erlang_complex_pair(self):
        # general PH can give a complex-conjugate root pair; coefficients must
        # combine to a real density
        from phscale.models import PhaseTypeRepr

        jumps = PhaseTypeRepr(alpha=(1.0, 0.0), T=((-3.0, 3.0), (0.0, -3.0)))
        m = SnLevyModel(mu=1.0, sigma=1.0, lam=2.0, jumps=jumps)
        d = find_roots(m, Q)
        coeffs = partial_fraction_coefficients(d)
        for x in (0.2, 1.0, 4.0):
            assert running_min_density(coeffs, x) >= -1e-10
        for s in (0.5, 2.0, 10.0):
            assert complex(reconstruct_factor(coeffs, s)).real == pytest.approx(
                complex(wh_factor_minus(d, s)).real, rel=1e-8
            )
