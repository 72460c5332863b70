"""Cramer-Lundberg roots: positive root, negative roots, interlacing."""
import mpmath
import numpy as np
import pytest

from phscale.errors import BracketingFailure, DomainError, PoleEvaluation
from phscale.models import (
    EXP1,
    HyperExpDist,
    PhaseTypeRepr,
    SnLevyModel,
    builtin_model,
)
import phscale.roots as roots
from phscale.meromorphic import BETA_BENCHMARK, _truncated_ladder, beta_psi, cgmy_params
from phscale.roots import (
    find_negative_roots_ph,
    find_roots,
    find_zeta,
    interlaced_roots,
)
from phscale.scale import build_scale

from closed_forms import (
    as_phase_type,
    coxian_laws,
    cramer_lundberg_polynomial,
    mp_hyperexp_psi,
    mp_ph_psi,
    mp_refine,
    n_phases,
)
from phscale.cli import identities_report

Q = 0.05
M1 = SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=EXP1)


class TestZeta:
    def test_pure_drift(self):
        m = SnLevyModel(mu=1.0, sigma=0.0, lam=0.0, jumps=EXP1)
        assert find_zeta(m, 0.05) == pytest.approx(0.05, rel=1e-12)

    def test_hand_model(self):
        # psi(1) = 2.5 for the single-rate model
        assert find_zeta(M1, 2.5) == pytest.approx(1.0, rel=1e-12)

    def test_residual(self, models):
        for m in models.values():
            zeta = find_zeta(m, Q)
            assert abs(m.laplace_exponent(zeta) - Q) < 1e-10 * max(1.0, Q)

    def test_monotone_in_q(self):
        m = builtin_model("exp1", sigma=1.0)
        zs = [find_zeta(m, q) for q in (0.01, 0.05, 0.2, 1.0, 5.0)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            find_zeta(M1, 0.0)


class TestHyperexpRoots:
    def test_case2_single_rate_count(self):
        d = find_roots(M1, Q)
        assert d.n_roots == 1
        assert 0 < d.xi[0] < 1.0

    def test_case1_single_rate_count(self):
        m = builtin_model("exp1", sigma=1.0)
        d = find_roots(m, Q)
        assert d.n_roots == 2
        x1, x2 = d.xi
        assert 0 < x1 < 1.0 < x2

    @pytest.mark.parametrize("name,sigma,n", [
        ("weibull-fit", 1.0, 7), ("weibull-fit", 0.0, 6),
        ("pareto-fit", 1.0, 15), ("pareto-fit", 0.0, 14),
    ])
    def test_builtin_counts_and_interlacing(self, name, sigma, n):
        m = builtin_model(name, sigma=sigma)
        d = find_roots(m, Q)
        xis = [x.real for x in d.xi]
        assert len(xis) == n
        eta = list(d.poles)
        for k, e in enumerate(eta):
            assert xis[k] < e
            if k + 1 < len(xis):
                assert e < xis[k + 1]

    def test_root_residuals(self, models):
        # psi is extremely steep where a root hugs a pole (weibull-fit:
        # xi ~ 676.1784 against eta = 676.178), so the meaningful accuracy
        # measure is the Newton correction |psi(-xi) - q| / |psi'(-xi)|,
        # i.e. the backward error in the root itself.
        for m in models.values():
            d = find_roots(m, Q)
            for xi in d.xi:
                x = xi.real
                res = abs(m.laplace_exponent(-x) - Q)
                slope = abs(m.laplace_exponent_derivative(-x))
                assert res / max(slope, 1.0) < 1e-10 * (1.0 + x)
            assert abs(m.laplace_exponent(d.zeta) - Q) < 1e-8


class TestInterlacedRoots:
    def test_roots_between_poles(self):
        # tan(s) = s has one root in each ((k - 1/2) pi, (k + 1/2) pi), k >= 1,
        # whose ends are poles of tan
        k = np.arange(1, 40)
        roots, vals = interlaced_roots(lambda s, k: np.tan(s) - s, (k - 0.5) * np.pi,
                                       (k + 0.5) * np.pi)
        assert np.all(((k - 0.5) * np.pi < roots) & (roots < (k + 0.5) * np.pi))
        assert np.all(np.abs(np.tan(roots) - roots) <= 1e-12 * roots**2)
        assert np.all(np.abs(vals) <= 1e-12 * roots**2)

    def test_no_sign_change_names_first_bracket(self):
        with pytest.raises(BracketingFailure, match=r"no sign change in \(0.0, 2.0\)"):
            interlaced_roots(lambda s, k: s - 3.0, np.array([0.0, 2.0]), np.array([2.0, 4.0]))

    def test_secant_onto_an_end_takes_the_minimum_step(self):
        # the root 1 + 1e-17 sits within one ulp of the end 1.0 that the creep
        # phase finds, so the first secant point rounds onto that end; it moves
        # 2 ulps inside, which closes the bracket without bisecting
        calls = []

        def f(s, k):
            calls.append(1)
            return (s - 1.0) - 1e-17

        root, val = interlaced_roots(f, np.array([0.0]), np.array([4.0]), False, False)
        assert root[0] == 1.0 and val[0] == -1e-17  # f at the returned root
        assert len(calls) == 2  # the creep phase and one step

    def test_creep_passes_evaluate_only_the_brackets_that_creep(self):
        # f = 1/(s - 1) + 1/(s - 2) + 1e-6/(s - 3) - 1 has poles at 1, 2, 3; the
        # root in (2, 3) sits 1e-6 below 3, so only that bracket creeps
        sizes = []

        def f(s, k):
            sizes.append(s.size)
            return 1 / (s - 1) + 1 / (s - 2) + 1e-6 / (s - 3) - 1

        roots, _ = interlaced_roots(f, np.array([1.0, 2.0]), np.array([2.0, 3.0]))
        assert roots[1] == pytest.approx(3.0 - 1e-6, rel=1e-6)
        assert sizes[:3] == [4, 2, 2]  # both brackets, then the one that creeps

    def test_f_gets_the_bracket_of_each_point(self):
        # f(s, k) = expm1(w[k] (s - r[k])) finds r only if k names the
        # bracket of every point; the root 1 + 1e-9 makes its bracket creep
        # to its end 1, and the curvatures w end the brackets at other steps
        lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
        r, w = np.array([0.5, 1.0 + 1e-9, 2.3]), np.array([0.1, 1.0, 8.0])
        calls = []

        def f(s, k):
            brackets = np.arange(3)[k]
            assert s.shape[-1] == brackets.size
            assert np.all((lo[brackets] <= s) & (s <= hi[brackets]))
            calls.append((s.shape, brackets.tolist()))
            return np.expm1(w[k] * (s - r[k]))

        roots, vals = interlaced_roots(f, lo, hi, False, False)
        assert np.all(np.abs(roots - r) <= 4 * np.spacing(r))
        assert calls[0] == ((2, 3), [0, 1, 2])  # both probes of every bracket
        assert calls[1] == ((2, 1), [1])        # the creep of the middle one
        steps = calls[2:]
        assert steps[0] == ((3,), [0, 1, 2])
        assert all(shape == (len(k),) for shape, k in steps)
        assert any(0 < len(k) < 3 for _, k in steps)

    def test_nan_inside_bracket_raises(self):
        f = lambda s, k: np.where(s > 0.5, np.nan, s - 0.75)
        with pytest.raises(BracketingFailure, match="NaN"):
            interlaced_roots(f, np.array([0.0]), np.array([1.0]))


def _doubling(psi, q):
    """The far end of the zeta bracket, doubled one power at a time."""
    top = 1.0
    while psi(top) <= q:
        top *= 2.0
    return top


def _zeta_brackets(monkeypatch, solve):
    """-lo of every zeta bracket that ``solve()`` hands ``interlaced_roots``."""
    seen = []
    inner = roots.interlaced_roots

    def spy(f, lo, hi, *poles):
        seen.append(-lo[lo < 0])
        return inner(f, lo, hi, *poles)

    monkeypatch.setattr(roots, "interlaced_roots", spy)
    solve()
    monkeypatch.undo()
    return seen[0].tolist()


class TestZetaDoubling:
    """The first 16 powers of two are tried in one psi call, and 2^16 ..
    2^199 in one more for the rows that need them; the bracket is the first
    power where psi > q, as doubling one at a time finds it."""

    @pytest.mark.parametrize("q", (1e-3, 0.05, 3.0, 100.0, 1e3, 1e6))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("name", ("exp1", "pareto-fit"))
    def test_first_power_above_q(self, monkeypatch, name, sigma, q):
        m = builtin_model(name, sigma=sigma)
        got = _zeta_brackets(monkeypatch, lambda: find_zeta(m, q))
        assert got == [_doubling(m.laplace_exponent, q)]

    @pytest.mark.parametrize("q", (1e6, 1e12, 1e40))
    def test_beyond_the_probed_powers(self, monkeypatch, q):
        m = builtin_model("exp1", sigma=0.0)  # zeta ~ q / 5
        got = _zeta_brackets(monkeypatch, lambda: find_zeta(m, q))
        assert got == [_doubling(m.laplace_exponent, q)] and got[0] > 2.0**15
        assert m.laplace_exponent(find_zeta(m, q)) == pytest.approx(q, rel=1e-12)

    # at q = 1e9 every row's zeta (~2.2e5) lies past 2^15
    @pytest.mark.parametrize("q", (3e-3, 0.3, 1e3, 1e6, 1e9))
    def test_every_row_of_a_ladder(self, monkeypatch, q):
        members = [cgmy_params(BETA_BENCHMARK, 3.0, 0.1, b) for b in (0.9, 0.4, 0.05)]
        got = _zeta_brackets(monkeypatch, lambda: _truncated_ladder(members, q, 5))
        assert got == [_doubling(lambda s: beta_psi(p, s), q) for p in members]

    def test_no_bracket_raises(self):
        with pytest.raises(BracketingFailure, match="doubling"):
            roots.interlaced_solve(lambda s, k: 0.0 * s, 1.0, np.array([]), None)

    def test_root_at_its_bracket_end_raises(self):
        # psi(-s) - q = s^2 has its only zero at the zeta bracket's end 0,
        # which no interlaced root may sit on
        with pytest.raises(BracketingFailure, match="interlacing violated"):
            roots.interlaced_solve(lambda s, k: Q + s * s, Q, np.array([]), None)

    def test_step_in_psi_leaves_a_zeta_residual(self):
        # psi jumps from q - 1 to q + 1 at s = 0.5: the bracket closes on the
        # step, where f is -1 on one side
        with pytest.raises(BracketingFailure, match=r"zeta residual too large: -1\.0"):
            roots.interlaced_solve(lambda s, k: Q + np.where(s > 0.5, 1.0, -1.0), Q,
                                   np.array([]), None)


@pytest.mark.parametrize("sigma", (1e-60, 1e-100, 1e-150, 1e-155))
def test_outer_root_beyond_float_range_raises(sigma):
    # the outer root lies near 2 mu / sigma^2, where the secant steps' products
    # overflow (at 1e-155 sigma^2 is subnormal and 2 mu / sigma^2 is inf):
    # a typed failure, with no NumPy warning before it
    with pytest.raises(BracketingFailure, match="float range"):
        find_roots(builtin_model("exp1", sigma=sigma), Q)


# sigma = 1, q = 1e3: the outer bracket's far end doubles twice, from
# eta_1 + 2 (2 mu / sigma^2) = 21 to 81
@pytest.mark.parametrize("sigma, q", [(1e6, Q), (1.0, 1e3)] + [
    pytest.param(s, Q, marks=pytest.mark.xfail(
        strict=True, raises=PoleEvaluation,
        reason="the outer root lies about 2 lam / sigma^2 above the pole -1, "
               "inside the pole guard's tolerance")) for s in (3e6, 1e7)],
    ids=("1000000.0", "1.0-1000.0", "3000000.0", "10000000.0"))
def test_exp1_large_sigma_roots_against_mpmath(sigma, q):
    # psi(s) = q for exp1 is the cubic (mu s + sigma^2 s^2/2 - q)(1 + s) - lam s
    # = 0: zeta and both xi within a few ulps of its 50-digit roots, well
    # inside the outer root's distance from the pole
    model = builtin_model("exp1", sigma=sigma)
    sf = build_scale(model, q)
    with mpmath.workdps(50):
        mu, lam, q = (mpmath.mpf(v) for v in (model.mu, model.lam, q))
        half = mpmath.mpf(sigma) ** 2 / 2
        ref = sorted((mpmath.re(r) for r in mpmath.polyroots(
            [half, half + mu, mu - q - lam, -q], maxsteps=200, extraprec=200)), reverse=True)
    assert sf.xi.size == 2
    for r, e in zip([sf.zeta, *(-sf.xi)], ref):
        assert float(abs(r - e) / abs(e)) < 1e-15, (r, e)


@pytest.mark.parametrize("name", ("exp1", "weibull-fit", "pareto-fit"))
@pytest.mark.parametrize("sigma", (0.0, 1.0))
@pytest.mark.parametrize("q", (1e-3, 0.05, 100.0))
def test_psi_calls_per_solve(monkeypatch, name, sigma, q):
    model = builtin_model(name, sigma=sigma)
    calls = []
    psi = SnLevyModel.laplace_exponent

    def counting(self, s):
        calls.append(np.ndim(s))
        return psi(self, s)

    monkeypatch.setattr(SnLevyModel, "laplace_exponent", counting)
    find_roots(model, q)
    assert len(calls) <= 35
    # both unbounded bracket ends, zeta's and the outer one, are probed on arrays
    assert 0 not in calls


@pytest.mark.parametrize("sigma", (0.0, 1.0))
@pytest.mark.parametrize("q", (1e-3, 0.05, 100.0))
def test_ph_psi_calls_per_solve(monkeypatch, sigma, q):
    # the eigenvalues need no psi; the Newton step takes one array call
    model = SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=coxian_laws(1, 5)[0])
    calls = []
    psi = SnLevyModel.laplace_exponent

    def counting(self, s):
        calls.append(1)
        return psi(self, s)

    monkeypatch.setattr(SnLevyModel, "laplace_exponent", counting)
    find_roots(model, q)
    assert len(calls) <= 3


class TestPolynomial:
    def test_vanishes_at_all_roots(self, models):
        for m in models.values():
            d = find_roots(m, Q)
            P = cramer_lundberg_polynomial(m, Q)
            scale = np.max(np.abs(P))
            for r in [d.zeta] + [-x for x in d.xi]:
                val = np.polynomial.polynomial.polyval(r, P)
                assert abs(val) < 1e-6 * scale * (1 + abs(r)) ** (len(P) - 1)

    def test_m1_reduces_to_quadratic(self):
        # (5s - 5s/(1+s) - q)(1+s) = 5s^2 + (5 - 5 - q)s - q = 5s^2 - qs - q
        P = cramer_lundberg_polynomial(M1, Q)
        assert P == pytest.approx([-Q, -Q, 5.0], rel=1e-12)

    def test_value_at_zero(self):
        # P(0) = -q * det(-T)
        m = builtin_model("weibull-fit", sigma=1.0)
        P = cramer_lundberg_polynomial(m, Q)
        det = float(np.prod(m.jumps.eta))
        assert P[0] == pytest.approx(-Q * det, rel=1e-10)

    def test_degree(self):
        assert len(cramer_lundberg_polynomial(M1, Q)) == 3  # degree m+1, Case2
        m = builtin_model("exp1", sigma=1.0)
        assert len(cramer_lundberg_polynomial(m, Q)) == 4  # degree m+2, Case1


class TestPhRoots:
    def test_matches_hyperexp_path(self, models):
        for m in models.values():
            d_he = find_roots(m, Q)
            ph = SnLevyModel(mu=m.mu, sigma=m.sigma, lam=m.lam,
                             jumps=as_phase_type(m.jumps))
            d_ph = find_negative_roots_ph(ph, Q)
            assert d_ph.zeta == pytest.approx(d_he.zeta, rel=1e-8)
            for a, b in zip(d_he.xi, d_ph.xi):
                assert complex(b).real == pytest.approx(complex(a).real, rel=1e-8)

    def test_erlang_case1(self):
        erlang = PhaseTypeRepr(alpha=(1.0, 0.0), T=((-2.0, 2.0), (0.0, -2.0)))
        m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=erlang)
        # Erlang(2) is minimal: the double eigenvalue is a genuine order-2
        # pole, so the Case1 count |roots| = |poles| + 1 = 3 still holds
        d = find_negative_roots_ph(m, Q)
        assert d.n_roots == 3
        for xi in d.xi:
            assert abs(m.laplace_exponent(-complex(xi)) - Q) < 1e-8

    def test_missing_negative_roots_raise(self, monkeypatch):
        # eigenvalues of the linearisation that all read positive leave none
        # of the 3 negative roots of the Erlang-2 model
        erlang = PhaseTypeRepr(alpha=(1.0, 0.0), T=((-2.0, 2.0), (0.0, -2.0)))
        m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=erlang)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: np.abs(eigvals(M)))
        with pytest.raises(BracketingFailure,
                           match=r"expected 3 negative roots for sigma = 1\.0, found 0"):
            find_negative_roots_ph(m, Q)

    def test_nonminimal_representation_warns(self):
        # the first phase is never entered, so the law is Exp(1): the
        # eigenvalue -2 of T is a root of det(sI-T) and of the jump-transform
        # numerator, the pole cancels and the root count drops below the
        # minimal-representation prediction
        dup = PhaseTypeRepr(alpha=(0.0, 1.0), T=((-2.0, 1.0), (0.0, -1.0)))
        m = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=dup)
        with pytest.warns(UserWarning, match="non-minimal"):
            find_negative_roots_ph(m, Q)

    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("q", (1e-3, 0.05, 100.0, 1e3))
    def test_roots_against_mpmath(self, sigma, q):
        # zeta and every xi against 50-digit roots, each refined by Newton
        # steps on the textbook psi from the computed root: 12 random
        # Coxians and an Erlang-2 law, whose roots hold a complex pair at
        # sigma = 1, q <= 0.05
        erlang = SnLevyModel(mu=1.0, sigma=sigma, lam=2.0,
                             jumps=PhaseTypeRepr(alpha=(1.0, 0.0), T=((-3.0, 3.0), (0.0, -3.0))))
        models = [SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=law)
                  for law in coxian_laws(12, 2)] + [erlang]
        for m in models:
            d = find_roots(m, q)
            assert d.n_roots == n_phases(m.jumps) + (sigma > 0)
            psi, dpsi = mp_ph_psi(m)
            with mpmath.workdps(50):
                for r in [d.zeta, *(-d.xi)]:
                    ref = mp_refine(psi, dpsi, q, r)
                    assert float(abs(r - ref) / abs(ref)) < 5e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    def test_without_jumps_matches_hyperexp_path(self, sigma):
        # with lam = 0 the eigenvalues of T are roots of the linearisation but
        # not poles of psi: no Newton step there, and no non-minimal warning
        ph = SnLevyModel(mu=5.0, sigma=sigma, lam=0.0, jumps=coxian_laws(1, 5)[0])
        he = SnLevyModel(mu=5.0, sigma=sigma, lam=0.0, jumps=EXP1)
        x = np.array([0.5, 1.0, 2.0])
        assert build_scale(ph, Q).w(x) == pytest.approx(build_scale(he, Q).w(x), rel=1e-12)

    def test_single_rate_closed_form(self):
        d = find_negative_roots_ph(
            SnLevyModel(mu=5.0, sigma=0.0, lam=5.0, jumps=as_phase_type(EXP1)), Q
        )
        # root of 5s^2 - qs - q = 0 with negative sign
        xi = (-(-Q) - np.sqrt(Q**2 + 4 * 5 * Q)) / (2 * 5.0)
        assert complex(d.xi[0]).real == pytest.approx(-xi, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", (0.0, 1.0))
def test_diagonal_generator_reduced_to_minimal_rates(sigma):
    # unsorted rates, a zero-weight phase and a repeated rate: the law is
    # 0.2 Exp(1) + 0.8 Exp(3), and only 1 and 3 are poles of psi
    diag = PhaseTypeRepr(alpha=(0.3, 0.0, 0.2, 0.5),
                         T=tuple(map(tuple, -np.diag([3.0, 7.0, 1.0, 3.0]))))
    ref = HyperExpDist(p=(0.2, 0.8), eta=(1.0, 3.0))
    ph, he = (SnLevyModel(mu=5.0, sigma=sigma, lam=5.0, jumps=j) for j in (diag, ref))
    d_ph, d_he = find_roots(ph, Q), find_roots(he, Q)
    assert d_ph.zeta == d_he.zeta
    np.testing.assert_array_equal(d_ph.xi, d_he.xi)
    np.testing.assert_array_equal(d_ph.poles, [1.0, 3.0])
    x = np.linspace(0.0, 5.0, 11)
    np.testing.assert_array_equal(build_scale(ph, Q).w(x), build_scale(he, Q).w(x))


def test_dispatch(models):
    m = models[("exp1", 1.0)]
    d = find_roots(m, Q)
    assert np.unique(d.xi).size == d.n_roots
    ph = SnLevyModel(mu=5.0, sigma=1.0, lam=5.0, jumps=as_phase_type(EXP1))
    d2 = find_roots(ph, Q)
    assert d2.zeta == pytest.approx(d.zeta, rel=1e-10)


# The paper's two exit scenarios (mu = 1, lam = 10 and mu = 4, lam = 5) and
# zero mean drift for exp1 (mu = lam = 5).  As q -> 0, xi_1 ~ q/|psi'(0+)|
# nears the bracket end 0, which is no pole; a creep that moved both ends of
# (0, eta_1) by the same step met the pole guard at eta_1 before passing the
# root, from q = 1e-11 (exp1, mu = 1, lam = 10) to q = 1e-20 (pareto-fit).
SMALL_Q_CELLS = [(name, mu, lam, sigma)
                 for name in ("exp1", "weibull-fit", "pareto-fit")
                 for mu, lam in ((1.0, 10.0), (4.0, 5.0), (5.0, 5.0))
                 for sigma in (0.0, 1.0)]
SMALL_Q = (1e-13, 1e-21, 1e-29)
# at zero mean drift psi(s) = s (mu - lam/(1 + s) + ...) cancels to an
# absolute error of about 5 eps in the bracket, so zeta ~ sqrt(q) carries a
# relative error ~ eps/zeta: 4e-6 at q = 1e-21, up to 7e-2 at q = 1e-29
ZERO_DRIFT = pytest.mark.xfail(strict=True, reason="psi cancels at zero mean drift")


def _small_q_params(failing):
    """SMALL_Q_CELLS as test params, the cells in ``failing`` (cell prefix ->
    mark) marked."""
    return [pytest.param(*cell, id="{}-mu{:g}-lam{:g}-s{:g}".format(*cell),
                         marks=[m for key, m in failing.items() if cell[:len(key)] == key])
            for cell in SMALL_Q_CELLS]


@pytest.mark.parametrize("name, mu, lam, sigma", _small_q_params({}))
def test_small_q_builds(name, mu, lam, sigma):
    model = builtin_model(name, sigma=sigma, mu=mu, lam=lam)
    for k in range(1, 30):
        d = build_scale(model, 10.0**-k).decomp
        assert d.n_roots == n_phases(model.jumps) + (sigma > 0)


@pytest.mark.parametrize("name, mu, lam, sigma",
                         _small_q_params({("exp1", 5.0, 5.0): ZERO_DRIFT}))
def test_small_q_roots_against_mpmath(name, mu, lam, sigma):
    # zeta and every xi within 1e-13 relative of 50-digit roots (at most
    # 2e-14 measured, away from zero drift)
    model = builtin_model(name, sigma=sigma, mu=mu, lam=lam)
    psi, dpsi = mp_hyperexp_psi(model)
    with mpmath.workdps(50):
        for q in SMALL_Q:
            d = find_roots(model, q)
            for r in [d.zeta, *(-d.xi)]:
                ref = mp_refine(psi, dpsi, q, r)
                assert float(abs(r - ref) / abs(ref)) < 1e-13, (q, r)


@pytest.mark.parametrize("name, mu, lam, sigma", _small_q_params({
    ("exp1", 5.0, 5.0): ZERO_DRIFT,
    # the laplace_at_poles row misses its 1e-10 gate for q <= 1e-6 already
    # (2.9e-9 at q = 1e-6, sigma = 0): the check's own conditioning, eps
    # sum_i |C_i/(xi_i - eta_j)| against |lead/(eta_j + zeta)|, a ratio of
    # 1.6e7 to 1e8 at the worst pole
    ("pareto-fit", 1.0, 10.0): pytest.mark.xfail(
        strict=True, reason="laplace_at_poles conditioning: rounding of terms "
                            "1.6e7-1e8 times the check's normaliser"),
}))
def test_small_q_identities_pass(name, mu, lam, sigma):
    # the wh_factorisation row evaluates phi_q_minus at -0.9 xi_1, which lies
    # 0.1 xi_1 from the pole -xi_1: a relative pole test admits it
    model = builtin_model(name, sigma=sigma, mu=mu, lam=lam)
    for q in SMALL_Q:
        report = identities_report(model, q)
        assert all(ok for _, ok in report.values()), (q, report)
