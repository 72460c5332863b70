"""Model validation, Laplace exponents, and jump densities."""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from phscale.errors import (
    DomainError,
    NegativeSubordinator,
    NonIncreasingRates,
    PoleEvaluation,
    SimplexViolation,
    SingularGenerator,
)
from phscale.models import (
    BUILTIN_JUMPS,
    EXP1,
    HyperExpDist,
    PARETO_FIT,
    PhaseTypeRepr,
    SnLevyModel,
    WEIBULL_FIT,
    builtin_model,
    load_model_file,
    validate_model,
)
from phscale.meromorphic import BETA_BENCHMARK, beta_psi, beta_psi_derivative
from phscale.scale import build_scale
from phscale.wiener_hopf import wh_factor_minus

from closed_forms import (
    COXIAN,
    as_phase_type,
    coxian_laws,
    jump_density,
    law_density,
    law_mean,
    mp_ph_psi,
    n_phases,
)


# The single-rate benchmark: mu=5, sigma=0, lambda=5, Exp(1) jumps gives
# psi(s) = 5s - 5s/(1+s), so psi(1) = 2.5 and psi'(1) = 5 - 5/4 = 3.75.
M1 = SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=EXP1)


class TestValidation:
    # sigma > 0 is the regime test: W(0) = 0 and a root beyond the poles
    def test_case1_classification(self):
        m = validate_model(
            {"drift": 5, "sigma": 1, "lambda": 5,
             "jump": {"type": "hyperexp", "p": [1.0], "eta": [1.0]}}
        )
        sf = build_scale(m, 0.05)
        assert sf.w0 == 0.0 and sf.xi.size == 2

    # sigma = 0: W(0) = 1/mu and one root per pole
    def test_case2_classification(self):
        m = SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=EXP1)
        sf = build_scale(m, 0.05)
        assert sf.w0 == 0.2 and sf.xi.size == 1

    def test_negative_subordinator_rejected(self):
        with pytest.raises(NegativeSubordinator):
            SnLevyModel(mu=-1.0, sigma=0.0, lam=5.0, jumps=EXP1)
        with pytest.raises(NegativeSubordinator):
            SnLevyModel(mu=1.0, sigma=-0.5, lam=5.0, jumps=EXP1)

    @pytest.mark.parametrize("sigma", (1e-200, 1e-163, 1e155, 1e200))
    def test_sigma_square_out_of_float_range(self, sigma):
        # sigma^2 underflows to 0 or overflows to inf
        with pytest.raises(DomainError, match="float range"):
            SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=EXP1)

    def test_simplex_violation(self):
        with pytest.raises(SimplexViolation):
            HyperExpDist(p=(0.5, 0.3), eta=(1.0, 2.0))

    def test_nonincreasing_rates(self):
        with pytest.raises(NonIncreasingRates):
            HyperExpDist(p=(0.5, 0.5), eta=(2.0, 1.0))

    def test_singular_generator(self):
        with pytest.raises(SingularGenerator):
            PhaseTypeRepr(alpha=(1.0, 0.0), T=((-1.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("c", (1e-150, 1.0, 1e150))
    @pytest.mark.parametrize("alpha, T, ok", [
        pytest.param((0.5, 0.5), [[-1.0, 1.0], [1.0, -1.0]], False, id="closed-2"),
        pytest.param((1.0, 0.0, 0.0), [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]],
                     False, id="closed-3"),
        pytest.param((1.0, 0.0), [[-1.0, 1.0], [0.0, -1.0]], True, id="erlang2"),
        pytest.param((1.0, 0.0), [[-2e-153, 2e-153], [0.0, -2e-153]], True, id="erlang2-tiny"),
        pytest.param((1 / 40,) * 40, np.diag(-np.geomspace(1e-9, 1e-7, 40)), True,
                     id="diag40-cond100"),
    ])
    def test_generator_checks_ignore_the_scale_of_T(self, alpha, T, ok, c):
        # every check is invariant under T -> cT: a closed class is singular
        # at every c, and a generator of condition number 100 is not, however
        # small its determinant (1e-320 for the 40 rates at c = 1)
        T = tuple(map(tuple, c * np.asarray(T)))
        if ok:
            PhaseTypeRepr(alpha=alpha, T=T)
        else:
            with pytest.raises(SingularGenerator):
                PhaseTypeRepr(alpha=alpha, T=T)

    def test_sign_tolerances_follow_the_rates(self):
        # an off-diagonal -1e-20 is rounding beside rates of 1, but beside
        # rates of 1e-15 it is a negative rate
        PhaseTypeRepr(alpha=(1.0, 0.0), T=((-1.0, 1.0), (-1e-20, -1.0)))
        with pytest.raises(SingularGenerator):
            PhaseTypeRepr(alpha=(1.0, 0.0), T=((-1e-15, 1e-15), (-1e-20, -1e-15)))

    def test_ph_alpha_simplex(self):
        with pytest.raises(SimplexViolation):
            PhaseTypeRepr(alpha=(0.5, 0.2), T=((-1.0, 0.0), (0.0, -2.0)))

    def test_unknown_jump_type(self):
        with pytest.raises(DomainError):
            validate_model(
                {"drift": 1, "sigma": 1, "lambda": 1, "jump": {"type": "gamma"}}
            )

    def test_unknown_jump_law_rejected(self):
        with pytest.raises(DomainError):
            SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps={"p": [1.0], "eta": [1.0]})

    @pytest.mark.parametrize("path", [
        ("drift",), ("sigma",), ("lambda",), ("jump", "p", 0), ("jump", "eta", 0),
        ("jump", "alpha", 0), ("jump", "T", 0, 0),
    ], ids=lambda path: "-".join(map(str, path)))
    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_are_not_numbers(self, path, flag):
        # json.load gives a JSON true as Python True, which float() takes as 1.0
        hyperexp = {"type": "hyperexp", "p": [1.0], "eta": [1.0]}
        ph = {"type": "phase_type", "alpha": [1.0], "T": [[-1.0]]}
        raw = {"drift": 5.0, "sigma": 1.0, "lambda": 5.0,
               "jump": ph if "alpha" in path or "T" in path else hyperexp}
        validate_model(raw)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = flag
        with pytest.raises(DomainError, match="malformed model field"):
            validate_model(raw)

    def test_missing_field(self):
        with pytest.raises(DomainError):
            validate_model({"drift": 1, "sigma": 1})

    @pytest.mark.parametrize("make, error", [
        (lambda: HyperExpDist(p=(math.nan, 1.0), eta=(1.0, 2.0)), SimplexViolation),
        (lambda: HyperExpDist(p=(0.5, 0.5), eta=(1.0, math.nan)), NonIncreasingRates),
        (lambda: HyperExpDist(p=(0.5, 0.5), eta=(1.0, math.inf)), NonIncreasingRates),
        (lambda: PhaseTypeRepr(alpha=(1.0, 0.0), T=((-1.0, math.nan), (0.0, -2.0))),
         SingularGenerator),
        (lambda: SnLevyModel(mu=math.nan, sigma=1.0, lam=5.0, jumps=EXP1), DomainError),
        (lambda: SnLevyModel(mu=5.0, sigma=math.inf, lam=5.0, jumps=EXP1), DomainError),
        (lambda: SnLevyModel(mu=5.0, sigma=0.0, lam=math.inf, jumps=EXP1), DomainError),
        # malformed values that are finite
        (lambda: HyperExpDist(p=(0.5, 0.5), eta=(1.0,)), SimplexViolation),
        (lambda: PhaseTypeRepr(alpha=(0.5, 0.5), T=((-1.0, 0.0),)), SingularGenerator),
        (lambda: PhaseTypeRepr(alpha=(1.0, 0.0), T=((-1.0, 2.0), (0.0, -1.0))),
         SingularGenerator),
        (lambda: SnLevyModel(mu=5.0, sigma=1.0, lam=-1.0, jumps=EXP1), NegativeSubordinator),
    ], ids=("p-nan", "eta-nan", "eta-inf", "T-nan", "mu-nan", "sigma-inf", "lam-inf",
            "p-eta-lengths", "T-not-square", "negative-exit-rate", "lam-negative"))
    def test_non_finite_parameters_rejected(self, make, error):
        with pytest.raises(error):
            make()

    def test_fitted_weights_accepted_verbatim(self):
        # the fitted weight vectors sum to 1 only to ~6 decimals
        assert n_phases(WEIBULL_FIT) == 6
        assert n_phases(PARETO_FIT) == 14

    def test_load_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"drift": 5, "sigma": 0, "lambda": 5,'
            ' "jump": {"type": "hyperexp", "p": [1.0], "eta": [1.0]}}'
        )
        m = load_model_file(str(path))
        assert m.sigma == 0.0
        assert m.jumps == EXP1


class TestJumpDensity:
    def test_exp1_ph_density_at_zero(self):
        ph = PhaseTypeRepr(alpha=(1.0,), T=((-1.0,),))
        assert law_density(ph, 0.0) == pytest.approx(1.0)

    def test_weibull_density_at_zero(self):
        expected = sum(p * e for p, e in zip(WEIBULL_FIT.p, WEIBULL_FIT.eta))
        assert law_density(WEIBULL_FIT, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_argument(self):
        assert law_density(WEIBULL_FIT, -1.0) == 0.0
        ph = PhaseTypeRepr(alpha=(1.0,), T=((-1.0,),))
        assert law_density(ph, -1.0) == 0.0

    @pytest.mark.parametrize("jumps", [EXP1, WEIBULL_FIT, PARETO_FIT])
    def test_density_integrates_to_one(self, jumps):
        # the slowest Pareto-fit rate is 8.3e-9, so split the integral
        total, _ = quad(lambda z: law_density(jumps, z), 0.0, np.inf, limit=400)
        mass = sum(jumps.p)  # fitted tables are not exactly normalized
        assert total == pytest.approx(mass, abs=1e-6)

    def test_ph_density_matches_hyperexp(self):
        ph = as_phase_type(WEIBULL_FIT)
        for z in (0.0, 0.1, 1.0, 5.0):
            assert law_density(ph, z) == pytest.approx(law_density(WEIBULL_FIT, z), rel=1e-10)

    def test_means_agree(self):
        assert law_mean(as_phase_type(WEIBULL_FIT)) == pytest.approx(
            law_mean(WEIBULL_FIT), rel=1e-10
        )


class TestLaplaceExponent:
    def test_psi_zero_is_zero(self, models):
        for m in models.values():
            assert m.laplace_exponent(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        assert M1.laplace_exponent(1.0) == pytest.approx(2.5, rel=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(PoleEvaluation):
            M1.laplace_exponent(-1.0)

    def test_convexity(self, models):
        grid = np.linspace(0.0, 4.0, 60)
        for m in models.values():
            vals = np.array([m.laplace_exponent(float(s)) for s in grid])
            assert np.all(np.diff(vals, 2) > 0)

    def test_ph_equals_hyperexp(self):
        he = builtin_model("weibull-fit", sigma=1.0)
        ph = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0,
                         jumps=as_phase_type(WEIBULL_FIT))
        for s in np.linspace(0.1, 10.0, 25):
            a = he.laplace_exponent(float(s))
            b = ph.laplace_exponent(float(s))
            assert b == pytest.approx(a, rel=1e-12)

    def test_ph_near_zero_against_mpmath(self):
        # lam (alpha (sI-T)^{-1} t - 1) cancels as s -> 0; the form
        # -lam s alpha (sI-T)^{-1} 1 does not
        law = PhaseTypeRepr(alpha=(1.0, 0.0, 0.0),
                            T=((-4.0, 2.4, 0.0), (0.0, -2.5, 1.5), (0.0, 0.0, -1.2)))
        m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=law)
        psi, _ = mp_ph_psi(m)
        with mpmath.workdps(50):
            for s in (1e-3, 1e-6, 1e-9):
                ref = psi(mpmath.mpf(s))
                assert float(abs((m.laplace_exponent(s) - ref) / ref)) < 1e-14

    def test_no_jumps(self):
        m = SnLevyModel(mu=2.0, sigma=1.0, lam=0.0, jumps=EXP1)
        assert m.laplace_exponent(3.0) == pytest.approx(2 * 3 + 0.5 * 9)
        assert m.levy_mass == 0.0
        with pytest.raises(DomainError):
            jump_density(m, 1.0)


class TestDerivative:
    def test_pure_drift(self):
        m = SnLevyModel(mu=2.0, sigma=0.0, lam=0.0, jumps=EXP1)
        assert m.laplace_exponent_derivative(3.0) == pytest.approx(2.0)

    def test_hand_value(self):
        assert M1.laplace_exponent_derivative(1.0) == pytest.approx(3.75, rel=1e-14)

    def test_finite_difference(self, models):
        h = 1e-6
        for m in models.values():
            for s in (0.5, 1.0, 2.0, 5.0):
                fd = (m.laplace_exponent(s + h) - m.laplace_exponent(s - h)) / (2 * h)
                assert m.laplace_exponent_derivative(s) == pytest.approx(
                    fd, rel=1e-5, abs=1e-6
                )

    def test_ph_derivative_matches_hyperexp(self):
        he = builtin_model("exp1", sigma=1.0)
        ph = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=as_phase_type(EXP1))
        for s in (0.3, 1.0, 4.0):
            assert ph.laplace_exponent_derivative(s) == pytest.approx(
                he.laplace_exponent_derivative(s), rel=1e-12
            )

    @pytest.mark.parametrize("name", ("exp1", "pareto-fit", "coxian"))
    def test_arrays_and_complex_against_scalar_loop(self, name):
        if name == "coxian":
            m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=coxian_laws(1, 3)[0])
        else:
            m = builtin_model(name, sigma=1.0)
        real = np.array([0.0, 0.3, 2.0, 40.0])
        cplx = np.array([0.3 + 0.0j, -0.2 + 1.0j, 0.5 - 0.5j, -3.0 + 0.1j])
        for fn in (m.laplace_exponent_derivative, m.jump_tilted_mean):
            assert isinstance(fn(0.3), float) and isinstance(fn(0.3 + 1j), complex)
            for s, cast in ((real, float), (cplx, complex)):
                loop = np.array([fn(cast(v)) for v in s])
                assert fn(s) == pytest.approx(loop, rel=1e-14, abs=0)
                assert fn(s.reshape(2, 2)) == pytest.approx(loop.reshape(2, 2), rel=1e-14, abs=0)
        # the one scalar rule: a float gives a float, a complex a complex
        # where the function takes one, and an array an array
        sf = build_scale(m, 0.05)
        factor = lambda s: wh_factor_minus(sf.decomp, s)
        for fn in (factor, sf.w, lambda s: beta_psi(BETA_BENCHMARK, s),
                   lambda s: beta_psi_derivative(BETA_BENCHMARK, s)):
            assert type(fn(0.3)) is float
            assert type(fn(real)) is np.ndarray and fn(real).shape == real.shape
            loop = [fn(float(v)) for v in real]
            assert fn(real) == pytest.approx(loop, rel=1e-14, abs=0)
        assert type(factor(0.3 + 1j)) is complex
        assert type(factor(cplx)) is np.ndarray and factor(cplx).dtype.kind == "c"


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin_model("cauchy")


def test_levy_mass_tracks_weight_deficit():
    m = builtin_model("pareto-fit", sigma=0.0)
    assert m.levy_mass == pytest.approx(5.0 * sum(PARETO_FIT.p), rel=1e-14)
    assert m.levy_mass < 5.0  # the fitted weights sum to slightly less than 1


@pytest.mark.parametrize("name", sorted(BUILTIN_JUMPS))
def test_hyperexp_is_diagonal_phase_type(name):
    # one set of jump formulas: a built-in law and its diagonal phase-type
    # twin give the same psi, psi', transforms and Levy mass, deficit included;
    # a built-in law is minimal already, so both arrays are p and eta bit for bit
    law = BUILTIN_JUMPS[name]
    he, ph = (SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=j) for j in (law, as_phase_type(law)))
    eta = np.array(law.eta)
    for arrays in (he.phase_type, ph.phase_type):
        assert arrays.diagonal
        assert arrays.alpha.tobytes() == np.array(law.p).tobytes()
        assert arrays.t.tobytes() == eta.tobytes() == arrays.poles.tobytes()
        assert arrays.T.tobytes() == (-np.diag(eta)).tobytes()
    assert ph.levy_mass == pytest.approx(he.levy_mass, rel=1e-14)
    for s in (-0.5 * law.eta[0], 0.0, 1e-6, 0.3, 2.0, 40.0):
        for fn in ("laplace_exponent", "laplace_exponent_derivative",
                   "jump_transform", "jump_tilted_mean"):
            assert getattr(ph, fn)(s) == pytest.approx(getattr(he, fn)(s), rel=1e-14, abs=0)


@pytest.mark.parametrize("name", sorted(BUILTIN_JUMPS))
def test_real_poles_of_the_builtins(name):
    # the record's density sum_k c_k e^{-eta_k y} integrates to the Levy mass,
    # sum_k c_k/eta_k = lam sum(alpha) with the fitted weights' deficit, and
    # its mean drift is d = mu - sum_k c_k/eta_k^2 = psi'(0)
    m = builtin_model(name)
    rp = m.real_poles
    assert abs((rp.c / rp.eta).sum() - m.levy_mass) <= 1e-13 * m.levy_mass
    for ref in (m.mu - (rp.c / rp.eta**2).sum(), m.laplace_exponent_derivative(0.0)):
        assert abs(rp.d - ref) <= 1e-13 * m.mu


def test_non_diagonal_generator_has_no_real_poles():
    assert SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=COXIAN).real_poles is None


NO_JUMP_LAWS = pytest.mark.parametrize("jumps", [EXP1, as_phase_type(WEIBULL_FIT), COXIAN],
                                       ids=["exp1", "diagonal-ph", "coxian"])


@NO_JUMP_LAWS
def test_no_jumps_is_the_empty_diagonal_law(jumps):
    # lam = 0 states the absence of jumps once: an empty diagonal law, whatever
    # the jump law given, so psi has no poles and no phases
    for sigma, mu in ((1.0, 2.0), (0.0, 1.0)):
        m = SnLevyModel(mu=mu, sigma=sigma, lam=0.0, jumps=jumps)
        ph = m.phase_type
        assert ph.diagonal
        assert [a.size for a in (ph.alpha, ph.T, ph.t, ph.poles)] == [0, 0, 0, 0]
        assert m.levy_mass == 0.0


@NO_JUMP_LAWS
def test_no_jumps_psi_is_the_gaussian_part(jumps):
    # bit for bit mu s + sigma^2 s^2 / 2, scalars and arrays, on either side of 0
    m = SnLevyModel(mu=2.0, sigma=1.5, lam=0.0, jumps=jumps)
    s = np.array([-40.0, -3.0, -1.0, -1e-9, 0.0, 1e-9, 0.7, 5.0])
    gauss = s * (m.mu + 0.5 * m.sigma**2 * s)
    assert m.laplace_exponent(s).tobytes() == gauss.tobytes()
    assert [m.laplace_exponent(v) for v in s] == gauss.tolist()
    assert not m.jump_transform(s).any() and not m.jump_tilted_mean(s).any()
    assert m.jump_transform(0.5) == 0.0
