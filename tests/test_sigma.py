import dataclasses
import importlib

import mpmath as mp
import numpy as np
import pytest
from box_theta import box_pass
from former_abel import former_to_points
from former_characteristics import former_characteristics
from former_jet import former_jet, former_partial

from sigmatoda.addition import (
    _rel,
    baker_residual,
    baker_rhs,
    deg1_residual,
    fay_residual,
    thm_add_residual,
)
from sigmatoda.curves import (
    INFINITY,
    CurvePoint,
    baker_f2,
    f12,
    make_curve,
    random_curve_points,
)
from sigmatoda.errors import (
    CharacteristicsNotFound,
    NotALatticeVector,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
    SigmaTodaError,
    ThetaDivisorPole,
)
from sigmatoda.periods import _continue_y, _continuous_sqrt, _refine, compute_periods
from sigmatoda.sigma import (
    LEG_SPLIT,
    _AbelEngine,
    _bound,
    _gauss_nodes,
    _leg_nodes,
    _monomials,
    _sigma_jets,
    abel_map,
    lattice_decompose,
    lattice_distance,
    natural_index_set,
    quasi_period,
    reduce_mod_lattice,
    riemann_characteristics,
    sigma,
    sigma_context,
    sigma_deriv,
    sigma_jet2,
    sigma_natural,
    sigma_with_scale,
    wp,
    wp_matrix,
    zeta,
)
from sigmatoda.verify import canonical_contexts

mp.mp.dps = 30


class ClassicalWeierstrass:
    """Independent genus-one sigma/zeta/wp from Jacobi theta functions."""

    def __init__(self, omega1, omega2):
        self.w1 = mp.mpc(omega1)
        tau = mp.mpc(omega2) / mp.mpc(omega1)
        assert mp.im(tau) > 0
        self.q = mp.exp(1j * mp.pi * tau)
        self.t1p = mp.jtheta(1, 0, self.q, 1)
        self.eta1 = -(mp.pi**2 / (12 * self.w1)) * mp.jtheta(1, 0, self.q, 3) / self.t1p

    def _v(self, u):
        return mp.pi * mp.mpc(u) / (2 * self.w1)

    def sigma(self, u):
        u = mp.mpc(u)
        return complex((2 * self.w1 / mp.pi) * mp.exp(self.eta1 * u**2 / (2 * self.w1))
                       * mp.jtheta(1, self._v(u), self.q) / self.t1p)

    def zeta(self, u):
        u = mp.mpc(u)
        v = self._v(u)
        return complex(self.eta1 * u / self.w1 + (mp.pi / (2 * self.w1))
                       * mp.jtheta(1, v, self.q, 1) / mp.jtheta(1, v, self.q))

    def wp(self, u):
        v = self._v(mp.mpc(u))
        t1 = mp.jtheta(1, v, self.q)
        t1d = mp.jtheta(1, v, self.q, 1)
        t1dd = mp.jtheta(1, v, self.q, 2)
        return complex(-self.eta1 / self.w1 - (mp.pi / (2 * self.w1))**2
                       * (t1dd * t1 - t1d**2) / t1**2)


@pytest.fixture(scope="module")
def ctx1():
    return sigma_context(make_curve(1, [0, -1, 0]))


@pytest.fixture(scope="module")
def ctx2():
    return sigma_context(make_curve(2, [1, 0, 0, 0, 0]))


@pytest.fixture(scope="module")
def classical(ctx1):
    pd = ctx1.periods
    return ClassicalWeierstrass(complex(pd.omega1[0, 0]), complex(pd.omega2[0, 0]))


def test_characteristics_genus1_odd(ctx1):
    assert np.allclose(ctx1.chars.a, [0.5])
    assert np.allclose(ctx1.chars.b, [0.5])


@pytest.mark.parametrize("genus", [1, 2])
def test_characteristics_negative_control(ctx1, ctx2, genus):
    ctx = ctx1 if genus == 1 else ctx2
    pd = ctx.periods
    bad = dataclasses.replace(pd, omega1=pd.omega1 * (1 + 1e-3),
                              riemann=pd.riemann * (1 + 1e-3),
                              legendre_residual=0.0, error_estimate=0.0)
    # perturbed periods move the Riemann constant 2e-3 off a half period
    with pytest.raises(CharacteristicsNotFound, match="off a half period"):
        riemann_characteristics(_AbelEngine(ctx.curve, bad))
    # an anchor shifted by a half period gives another half-integer (a, b),
    # which the certificate refuses
    engine = _AbelEngine(ctx.curve, pd)
    engine.anchors[1] += pd.omega1[:, 0]
    with pytest.raises(CharacteristicsNotFound, match="does not vanish"):
        riemann_characteristics(engine)


@pytest.mark.parametrize("genus, a, b", [(1, [0.5], [0.5]), (2, [0.5, 0.5], [0.0, 0.5])])
def test_characteristics_take_one_stacked_pass(ctx1, ctx2, genus, a, b, monkeypatch):
    ctx = ctx1 if genus == 1 else ctx2
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    stacks = []

    def counted(deriv, *args, **kwargs):
        stacks.append((len(deriv), np.shape(args[0])))
        return kernel(deriv, *args, **kwargs)

    monkeypatch.setattr(sigma_mod, "_theta_sum", counted)
    passes = []
    to_points = _AbelEngine.to_points
    monkeypatch.setattr(_AbelEngine, "to_points",
                        lambda self, pts: passes.append(len(pts)) or to_points(self, pts))
    chars = riemann_characteristics(ctx.abel)
    assert np.array_equal(chars.a, a) and np.array_equal(chars.b, b)
    # exact half-integers: no -0.0
    assert not np.any(np.signbit(np.concatenate([chars.a, chars.b])))
    # 1 + 2g lattice translates of 0, and six Abel images at genus 2, whose
    # points take one node pass; all certified in one theta pass
    n_points = 1 + 2 * genus + 6 * (genus - 1)
    assert stacks == [(0, (n_points, genus))]
    assert passes == [6 * (genus - 1)] * (genus - 1)


@pytest.mark.parametrize("genus", [1, 2])
def test_characteristics_closed_form_matches_the_former_search(genus):
    # monic curves with N(0, 1) coefficients, real and complex; a curve whose
    # periods raise a typed error is counted, not compared
    rng = np.random.default_rng(77)
    compared, no_periods = 0, 0
    for complex_class in (False, True):
        for _ in range(60):
            lam = rng.normal(size=2 * genus + 1)
            if complex_class:
                lam = lam + 1j * rng.normal(size=2 * genus + 1)
            curve = make_curve(genus, lam)
            try:
                periods = compute_periods(curve)
            except SigmaTodaError:
                no_periods += 1
                continue
            engine = _AbelEngine(curve, periods)
            want, got = former_characteristics(engine), riemann_characteristics(engine)
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b), lam
            compared += 1
    assert compared >= 40, f"{compared} curves compared, {no_periods} without periods"


def test_sigma_matches_classical(ctx1, classical):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = complex(rng.normal() * 0.6, rng.normal() * 0.6)
        ours = sigma(ctx1, [u])
        assert ours == pytest.approx(classical.sigma(u), rel=1e-10, abs=1e-12)


def test_zeta_and_wp_match_classical(ctx1, classical):
    rng = np.random.default_rng(1)
    for _ in range(6):
        u = complex(rng.normal() * 0.5, rng.normal() * 0.5) + 0.1
        assert zeta(ctx1, 1, [u]) == pytest.approx(classical.zeta(u), rel=1e-9)
        assert wp(ctx1, 1, 1, [u]) == pytest.approx(classical.wp(u), rel=1e-9)


def test_sigma_normalization_series(ctx1):
    # sigma(u) = u + O(u^5)
    for eps in (1e-1, 1e-2):
        assert sigma(ctx1, [eps]) / eps == pytest.approx(1.0, abs=2 * eps**4)
    assert abs(sigma(ctx1, [0.0])) < 1e-14


def test_sigma_parity(ctx1):
    rng = np.random.default_rng(2)
    u = np.array([complex(rng.normal(), rng.normal()) * 0.4])
    assert sigma(ctx1, -u) == pytest.approx(-sigma(ctx1, u), rel=1e-12)


def test_wp_leading_laurent(ctx1):
    u = 1e-3
    assert u**2 * wp(ctx1, 1, 1, [u]) == pytest.approx(1.0, abs=1e-6)


def test_genus1_addition_formula(ctx1):
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = np.array([complex(rng.normal(), rng.normal()) * 0.45])
        v = np.array([complex(rng.normal(), rng.normal()) * 0.45])
        lhs = wp(ctx1, 1, 1, u) - wp(ctx1, 1, 1, v)
        rhs = -sigma(ctx1, u + v) * sigma(ctx1, u - v) / (
            sigma(ctx1, u)**2 * sigma(ctx1, v)**2)
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-9


def test_wp_satisfies_curve_equation(ctx1):
    # (wp')^2 = 4 f(wp) with wp' from Richardson finite differences
    rng = np.random.default_rng(4)
    curve = ctx1.curve
    for _ in range(5):
        u = complex(rng.normal(), rng.normal()) * 0.4 + 0.2
        h = 1e-5
        d1 = (wp(ctx1, 1, 1, [u + h]) - wp(ctx1, 1, 1, [u - h])) / (2 * h)
        d2 = (wp(ctx1, 1, 1, [u + h / 2]) - wp(ctx1, 1, 1, [u - h / 2])) / h
        wpp = (4 * d2 - d1) / 3
        assert wpp**2 == pytest.approx(4 * curve.f(wp(ctx1, 1, 1, [u])), rel=1e-7)


def test_abel_empty_and_strata(ctx1):
    ap = abel_map(ctx1, [])
    assert np.allclose(ap.u, 0.0)
    assert ap.stratum == 0


def test_abel_involution_cancels(ctx1, ctx2):
    rng = np.random.default_rng(5)
    for ctx in (ctx1, ctx2):
        p = random_curve_points(ctx.curve, rng, 1)[0]
        total = abel_map(ctx, [p]).u + abel_map(ctx, [p.conj()]).u
        assert lattice_distance(ctx.periods, total) < 1e-9


def test_abel_round_trip_genus1(ctx1):
    rng = np.random.default_rng(6)
    for _ in range(4):
        u0 = complex(rng.normal(), rng.normal()) * 0.4 + 0.15
        x0 = wp(ctx1, 1, 1, [u0])
        h = 1e-5
        d1 = (wp(ctx1, 1, 1, [u0 + h]) - wp(ctx1, 1, 1, [u0 - h])) / (2 * h)
        d2 = (wp(ctx1, 1, 1, [u0 + h / 2]) - wp(ctx1, 1, 1, [u0 - h / 2])) / h
        y0 = (4 * d2 - d1) / 6
        ap = abel_map(ctx1, [CurvePoint(complex(x0), complex(y0))])
        assert lattice_distance(ctx1.periods, ap.u - u0) < 1e-8


def translation_factors(ctx, ell, u):
    """Sign chi and exponent L with sigma(u + ell) = chi * exp(L) * sigma(u).

    The exponent is -(u + ell/2)^T (2 eta1 l' + 2 eta2 l''); the sign of the
    bilinear part follows the classical Weierstrass convention, which the
    Legendre-certified periods reproduce.
    """
    ell = np.atleast_1d(np.asarray(ell, dtype=complex))
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    l1, l2 = lattice_decompose(ctx.periods, ell, tol=1e-6)
    l1, l2 = np.round(l1), np.round(l2)
    delta2, delta1 = ctx.chars.a, ctx.chars.b  # a holds delta'', b holds delta'
    chi = np.exp(2j * np.pi * (l1 @ delta2 - l2 @ delta1 + 0.5 * (l1 @ l2)))
    chi = complex(np.sign(chi.real) if abs(chi.imag) < 1e-9 else chi)
    l_val = -(u + 0.5 * ell) @ quasi_period(ctx.periods, ell, 1e-6)
    return chi, l_val


def test_translation_law(ctx1, ctx2):
    rng = np.random.default_rng(7)
    for ctx in (ctx1, ctx2):
        g = ctx.genus
        u = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.3
        for gen in range(2 * g):
            coeff = np.zeros(2 * g)
            coeff[gen] = 1.0
            ell = ctx.periods.lattice_matrix() @ coeff
            ell = ell[:g] + 1j * ell[g:]
            chi, l_val = translation_factors(ctx, ell, u)
            assert chi in (1.0 + 0j, -1.0 + 0j)
            lhs = sigma(ctx, u + ell)
            rhs = chi * np.exp(l_val) * sigma(ctx, u)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-8


def test_translation_rejects_non_lattice(ctx1):
    with pytest.raises(NotALatticeVector):
        translation_factors(ctx1, [0.123 + 0.456j], [0.0])


def test_chi_cocycle(ctx2):
    # chi(l1 + l2) chi(l1)^-1 chi(l2)^-1 = (-1)^(l1' l2'' - l1'' l2')
    rng = np.random.default_rng(8)
    pd = ctx2.periods
    g = 2
    for _ in range(6):
        c1 = rng.integers(-2, 3, size=2 * g)
        c2 = rng.integers(-2, 3, size=2 * g)
        mat = pd.lattice_matrix()
        e1 = mat @ c1
        e2 = mat @ c2
        ell1 = e1[:g] + 1j * e1[g:]
        ell2 = e2[:g] + 1j * e2[g:]
        u = np.zeros(g)
        chi1, _ = translation_factors(ctx2, ell1, u)
        chi2, _ = translation_factors(ctx2, ell2, u)
        chi12, _ = translation_factors(ctx2, ell1 + ell2, u)
        pairing = c1[:g] @ c2[g:] - c1[g:] @ c2[:g]
        assert chi12 / (chi1 * chi2) == pytest.approx((-1.0) ** pairing, rel=1e-12)


def test_natural_index_sets_table():
    assert natural_index_set(4, 1) == (2, 4)
    assert natural_index_set(8, 3) == (4, 6, 8)
    assert natural_index_set(2, 5) == ()
    assert natural_index_set(2, 1) == (2,)
    assert natural_index_set(1, 1) == ()


def test_sigma_natural_reduces_to_sigma(ctx2):
    u = np.array([0.21 + 0.07j, -0.33 + 0.11j])
    assert sigma_natural(ctx2, 5, u) == pytest.approx(sigma(ctx2, u), rel=1e-14)
    assert sigma_natural(ctx2, 2, u) == pytest.approx(sigma(ctx2, u), rel=1e-14)
    assert sigma_natural(ctx2, 1, u) == pytest.approx(sigma_deriv(ctx2, (2,), u), rel=1e-14)


def test_sigma_vanishes_on_w1_genus2(ctx2):
    rng = np.random.default_rng(9)
    from sigmatoda.sigma import sigma_with_scale

    for _ in range(4):
        p = random_curve_points(ctx2.curve, rng, 1)[0]
        u = abel_map(ctx2, [p]).u
        val, scale = sigma_with_scale(ctx2, u)
        assert abs(val) < 1e-8 * scale


def test_wp_symmetry_and_fd_cross_check(ctx2):
    rng = np.random.default_rng(10)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    assert wp(ctx2, 1, 2, u) == pytest.approx(wp(ctx2, 2, 1, u), rel=1e-12)
    h = 1e-5

    def logsig(v):
        return np.log(sigma(ctx2, v))

    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    fd = -(logsig(u + h * e1 + h * e2) - logsig(u + h * e1 - h * e2)
           - logsig(u - h * e1 + h * e2) + logsig(u - h * e1 - h * e2)) / (4 * h * h)
    assert wp(ctx2, 1, 2, u) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_wp_lattice_periodic(ctx2):
    rng = np.random.default_rng(11)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    ell = 2.0 * ctx2.periods.omega1[:, 0]
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        assert abs(wp(ctx2, i, j, u + ell) - wp(ctx2, i, j, u)) < 1e-7 * max(
            1.0, abs(wp(ctx2, i, j, u)))


def test_jacobi_inversion_genus2(ctx2):
    rng = np.random.default_rng(12)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    w22 = wp(ctx2, 2, 2, u)
    w12 = wp(ctx2, 1, 2, u)
    for p in pts:
        assert abs(p.x**2 - w22 * p.x - w12) < 1e-9 * max(1.0, abs(p.x) ** 2)


def test_sigma_parity_on_strata(ctx2):
    # sigma_natural(1) is even on W_1 for even genus; sigma is odd everywhere here
    rng = np.random.default_rng(13)
    p = random_curve_points(ctx2.curve, rng, 1)[0]
    u = abel_map(ctx2, [p]).u
    assert sigma_natural(ctx2, 1, -u) == pytest.approx(sigma_natural(ctx2, 1, u), rel=1e-9)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u2 = abel_map(ctx2, pts).u
    assert sigma(ctx2, -u2) == pytest.approx(-sigma(ctx2, u2), rel=1e-9)


def test_theta_divisor_pole_detection(ctx2):
    rng = np.random.default_rng(14)
    p = random_curve_points(ctx2.curve, rng, 1)[0]
    u = abel_map(ctx2, [p]).u  # on the theta divisor translate
    with pytest.raises(ThetaDivisorPole):
        zeta(ctx2, 1, u)


def test_reduce_mod_lattice_idempotent(ctx2):
    rng = np.random.default_rng(15)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    ell = 2.0 * ctx2.periods.omega1 @ np.array([3, -2]) \
        + 2.0 * ctx2.periods.omega2 @ np.array([-1, 4])
    red = reduce_mod_lattice(ctx2.periods, u + ell)
    assert np.allclose(red, reduce_mod_lattice(ctx2.periods, u), atol=1e-10)


@pytest.mark.parametrize("n", [48, 64, 96, 128, 192, 256, 384])
def test_gauss_nodes_cached_read_only_and_exact(n):
    nodes, weights = _gauss_nodes(n)
    again = _gauss_nodes(n)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    x, w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, 0.5 * (x + 1.0))
    assert np.array_equal(weights, 0.5 * w)


@pytest.fixture()
def integrations(monkeypatch):
    """The point lists passed to _AbelEngine.to_points, one per node pass."""
    seen = []
    original = _AbelEngine.to_points

    def counted(self, points):
        seen.append(list(points))
        return original(self, points)

    monkeypatch.setattr(_AbelEngine, "to_points", counted)
    return seen


def _integrated(batches):
    return [id(p) for batch in batches for p in batch]


def _fresh(*pts):
    return [CurvePoint(p.x, p.y) for p in pts]


def test_addition_checks_integrate_each_point_once(ctx1, ctx2, integrations):
    rng = np.random.default_rng(21)
    p, q = random_curve_points(ctx1.curve, rng, 2)
    base = random_curve_points(ctx2.curve, rng, 2)
    v1, v2 = random_curve_points(ctx2.curve, rng, 2)
    shared = [thm_add_residual(ctx1, [p], [q]),
              thm_add_residual(ctx2, base, [v1, v2]),
              thm_add_residual(ctx2, base, [v1]),
              fay_residual(ctx2, base, v1, v2),
              baker_residual(ctx2, base, v1, v2)]
    # one node pass per genus: the first check of each maps all six points
    assert _integrated(integrations) == [id(x) for x in (p, q, *base, v1, v2)]
    assert [len(batch) for batch in integrations] == [2, 4]
    # a fresh copy of every point in every check integrates 15 times, same
    # bits, one node pass per check
    unshared = [thm_add_residual(ctx1, _fresh(p), _fresh(q)),
                thm_add_residual(ctx2, _fresh(*base), _fresh(v1, v2)),
                thm_add_residual(ctx2, _fresh(*base), _fresh(v1)),
                fay_residual(ctx2, _fresh(*base), *_fresh(v1, v2)),
                baker_residual(ctx2, _fresh(*base), *_fresh(v1, v2))]
    assert len(_integrated(integrations)) == 6 + 15 and len(integrations) == 2 + 5
    assert unshared == shared


def test_equal_points_integrate_once_each(ctx2, integrations):
    p = random_curve_points(ctx2.curve, np.random.default_rng(22), 1)[0]
    twin = CurvePoint(p.x, p.y)
    assert twin == p and hash(twin) == hash(p)
    abel_map(ctx2, [p, twin, p, twin])
    # equal objects each once, the same object once, in one node pass
    assert len(integrations) == 1 and _integrated(integrations) == [id(p), id(twin)]
    assert np.array_equal(p._abel[ctx2.abel], twin._abel[ctx2.abel])


def test_abel_image_is_read_only_and_exact(ctx1, ctx2, integrations):
    rng = np.random.default_rng(23)
    for ctx in (ctx1, ctx2):
        branch = CurvePoint(complex(ctx.curve.branch_points[-1]), 0j)
        pts = [*random_curve_points(ctx.curve, rng, 3), branch]
        integrations.clear()
        total = abel_map(ctx, pts).u
        assert len(integrations) == 1  # the four points in one node pass
        one_point = _AbelEngine(ctx.curve, ctx.periods)
        for p in pts:
            assert list(p._abel) == [ctx.abel]
            img = p._abel[ctx.abel]
            with pytest.raises(ValueError):
                img[0] = 0.0
            # the batch's image has the bits of a fresh engine's one-point call
            assert np.array_equal(img, one_point.to_point(p))
            assert np.array_equal(abel_map(ctx, [p]).u, img)
        assert np.array_equal(abel_map(ctx, pts).u, total)
        assert len(integrations) == 1 + len(pts)  # only the fresh engine's calls


def test_each_context_keeps_its_own_image():
    (a1, a2), (b1, b2) = canonical_contexts(), canonical_contexts()
    rng = np.random.default_rng(24)
    for a, b in ((a1, b1), (a2, b2)):
        p = random_curve_points(a.curve, rng, 1)[0]
        ua, ub = abel_map(a, [p]).u, abel_map(b, [p]).u
        assert len(p._abel) == 2 and set(p._abel) == {a.abel, b.abel}
        assert np.array_equal(ua, ub)


def test_infinity_gets_no_image(ctx2):
    p = random_curve_points(ctx2.curve, np.random.default_rng(25), 1)[0]
    ap = abel_map(ctx2, [INFINITY, p, INFINITY])
    assert ap.stratum == 1 and np.array_equal(ap.u, abel_map(ctx2, [p]).u)
    assert INFINITY._abel == {} and list(p._abel) == [ctx2.abel]


def test_failed_integration_leaves_no_image(ctx1, integrations):
    # y = i sqrt(f(2)) lies on neither sheet over x = 2: the arrival is ambiguous
    p = CurvePoint(2.0 + 0j, 1j * np.sqrt(6.0))
    for _ in range(2):
        with pytest.raises(PathThroughBranchPoint):
            abel_map(ctx1, [p])
    assert p._abel == {} and len(integrations) == 2
    # a node pass that raises stores no image for any of its points
    good = random_curve_points(ctx1.curve, np.random.default_rng(26), 2)
    with pytest.raises(PathThroughBranchPoint, match=rf"y = {p.y} .* over x = \(2\+0j\)"):
        abel_map(ctx1, [good[0], p, good[1]])
    assert integrations[-1] == [good[0], p, good[1]]
    assert p._abel == {} and good[0]._abel == {} and good[1]._abel == {}


@pytest.mark.parametrize("genus", [1, 2])
def test_wp_matrix_is_wp_entry_by_entry_from_one_theta_pass(ctx1, ctx2, genus,
                                                             monkeypatch):
    ctx = ctx1 if genus == 1 else ctx2
    # the package attribute ``sigma`` is the function, not the module
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    rng = np.random.default_rng(26 + genus)
    for _ in range(5):
        u = 0.5 * (rng.normal(size=genus) + 1j * rng.normal(size=genus))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sigma_mod, "_theta_sum", counted)
            mat = wp_matrix(ctx, u)
        assert len(calls) == 1 and mat.shape == (genus, genus)
        # every entry, (1, 2) and (2, 1) included
        for i in range(1, genus + 1):
            for j in range(1, genus + 1):
                assert mat[i - 1, j - 1] == wp(ctx, i, j, u)


def test_wp_matrix_raises_where_wp_does(ctx1, ctx2):
    p = random_curve_points(ctx2.curve, np.random.default_rng(28), 1)[0]
    for ctx, u in ((ctx1, np.zeros(1)), (ctx2, abel_map(ctx2, [p]).u)):
        with pytest.raises(ThetaDivisorPole):
            wp(ctx, 1, 1, u)
        with pytest.raises(ThetaDivisorPole):
            wp_matrix(ctx, u)


def _former_wp_matrix(ctx, u):
    """Oracle: the former product-rule quotient (s_i s_j - s s_ij) / s^2 per entry."""
    jet = former_jet(ctx, u, 2)
    s0 = former_partial(ctx, jet, ())

    def entry(i, j):
        si, sj = former_partial(ctx, jet, (i,)), former_partial(ctx, jet, (j,))
        return (si * sj - s0 * former_partial(ctx, jet, (i, j))) / (s0 * s0)

    labels = range(ctx.genus)
    return np.array([[entry(i, j) for j in labels] for i in labels])


def _former_zeta(ctx, u):
    """Oracle: the former quotient s_i / s for every i, from one 1-jet."""
    jet = former_jet(ctx, u, 1)
    return np.array([former_partial(ctx, jet, (i,)) / former_partial(ctx, jet, ())
                     for i in range(ctx.genus)])


# fixed before wp_matrix and zeta took the cumulant forms: relative to the
# largest entry of the former matrix or vector
FORMER_MATCH = 1e-12


@pytest.mark.parametrize("genus", [1, 2])
def test_wp_matrix_and_zeta_match_the_former_quotient(ctx1, ctx2, genus):
    ctx = ctx1 if genus == 1 else ctx2
    rng = np.random.default_rng(50 + genus)
    points = [0.5 * (rng.normal(size=genus) + 1j * rng.normal(size=genus))
              for _ in range(6)]
    points += [abel_map(ctx, random_curve_points(ctx.curve, rng, genus)).u
               for _ in range(4)]
    for u in points:
        want = _former_wp_matrix(ctx, u)
        assert np.max(np.abs(wp_matrix(ctx, u) - want)) <= FORMER_MATCH * np.max(np.abs(want))
        want = _former_zeta(ctx, u)
        got = np.array([zeta(ctx, i, u) for i in range(1, genus + 1)])
        assert np.max(np.abs(got - want)) <= FORMER_MATCH * np.max(np.abs(want))


# the residuals as they were written before wp_matrix, one wp call per term
def _former_baker(ctx, u_pts, v1, v2):
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    lhs = sum(wp(ctx, i, j, u) * v1.x ** (i - 1) * v2.x ** (j - 1)
              for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, baker_rhs(ctx.curve, u_pts, v1.x, v2.x))


def _former_fay(ctx, u_pts, v1, v2):
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    v = abel_map(ctx, [v1, v2]).u
    lhs = (sigma(ctx, u + v) * sigma(ctx, u - v)
           / (sigma(ctx, u) ** 2 * sigma_natural(ctx, 2, v) ** 2))
    kernel = (baker_f2(ctx.curve, v1.x, v2.x) - 2 * v1.y * v2.y) / (v1.x - v2.x) ** 2
    ssum = sum(wp(ctx, i, j, u) * v1.x ** (i - 1) * v2.x ** (j - 1)
               for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, kernel - ssum)


def _former_deg1(ctx, u_pts, v1):
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    v = abel_map(ctx, [v1]).u
    lhs = (sigma(ctx, u + 2 * v) * sigma(ctx, u - 2 * v)
           / (sigma(ctx, u) ** 2 * sigma_natural(ctx, 2, 2 * v) ** 2))
    ssum = sum(wp(ctx, i, j, u) * v1.x ** (i + j - 2)
               for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, f12(ctx.curve, v1.x) - ssum)


def test_wp_matrix_residuals_equal_the_former_sums(ctx1, ctx2, monkeypatch):
    # within 1% of the residual gate (1e-9 at genus 1, 1e-6 at genus 2) of
    # the per-entry sums, on the plan kernel and on the box reference; the
    # cumulant form of wp_matrix moves the last bits, so the plan-kernel
    # comparison is no longer bit for bit
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    swap = {1: 1e-11, 2: 1e-8}
    rng = np.random.default_rng(29)
    for ctx in (ctx1, ctx2):
        for _ in range(5):
            base = random_curve_points(ctx.curve, rng, ctx.genus)
            v1, v2 = random_curve_points(ctx.curve, rng, 2)
            for check, former, args in ((baker_residual, _former_baker, (ctx, base, v1, v2)),
                                        (fay_residual, _former_fay, (ctx, base, v1, v2)),
                                        (deg1_residual, _former_deg1, (ctx, base, v1))):
                value = check(*args)
                assert abs(value - former(*args)) <= swap[ctx.genus]
                with monkeypatch.context() as patch:
                    patch.setattr(sigma_mod, "_theta_sum", box_pass)
                    assert abs(value - former(*args)) <= swap[ctx.genus]


def test_abel_third_quadrature_rules_are_checked(ctx2, monkeypatch):
    # at a negative tolerance no two levels agree, not even to the bit, so
    # every leg halves until the depth cap and raises instead of returning a
    # sum that was never checked
    engine = _AbelEngine(ctx2.curve, ctx2.periods)
    monkeypatch.setattr(importlib.import_module("sigmatoda.sigma"), "AGREE_TOL", -1.0)
    rng = np.random.default_rng(33)
    for p in _near_points(ctx2.curve, rng, (0.02, 0.25, 2.0), 1):
        with pytest.raises(QuadratureNonConvergence):
            engine.to_point(p)


@pytest.mark.parametrize("genus", [1, 2])
def test_out_of_range_labels_raise_naming_the_label(ctx1, ctx2, genus):
    # unchecked, label 0 would index u_g from the end and g + 1 past it
    ctx = ctx1 if genus == 1 else ctx2
    u = np.array([0.21 + 0.07j, -0.13 + 0.11j])[:genus]
    for label in (0, -1, genus + 1, 1.5):
        calls = (lambda: sigma_deriv(ctx, (label,), u), lambda: sigma_deriv(ctx, (1, label), u),
                 lambda: zeta(ctx, label, u), lambda: wp(ctx, label, 1, u),
                 lambda: wp(ctx, 1, label, u))
        for call in calls:
            with pytest.raises(ValueError, match=f"u label {label} outside 1..{genus}"):
                call()


@pytest.mark.parametrize("genus", [1, 2])
def test_zeta_and_wp_matrix_share_one_theta_pass(ctx1, ctx2, genus, monkeypatch):
    ctx = ctx1 if genus == 1 else ctx2
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel, orders = sigma_mod._theta_sum, []

    def counted(deriv, *args):
        orders.append(len(deriv))
        return kernel(deriv, *args)

    monkeypatch.setattr(sigma_mod, "_theta_sum", counted)
    u = np.array([0.17 - 0.05j, 0.09 + 0.12j])[:genus]
    ctx._wp.clear()
    zetas = [zeta(ctx, i, u) for i in range(1, genus + 1)]
    wpm = wp_matrix(ctx, u)
    assert orders == [2]
    # the kept pair has the bits of a pass of its own
    ctx._wp.clear()
    assert wp_matrix(ctx, u).tobytes() == wpm.tobytes()
    assert [_bits(zeta(ctx, i, u)) for i in range(1, genus + 1)] == [_bits(z) for z in zetas]
    assert orders == [2, 2]


def _bits(x):
    return np.complex128(x).tobytes()


@pytest.mark.parametrize("genus", [1, 2])
def test_stacked_sigma_deriv_equals_its_per_point_calls(ctx1, ctx2, genus):
    ctx = ctx1 if genus == 1 else ctx2
    labels = range(1, genus + 1)
    index_sets = [()] + [(i,) for i in labels] + [(i, j) for i in labels for j in labels]
    rng = np.random.default_rng(40 + genus)
    points = 0.4 * (rng.normal(size=(12, genus)) + 1j * rng.normal(size=(12, genus)))
    singles = {idx: [sigma_deriv(ctx, idx, u) for u in points] for idx in index_sets}
    # K = 1..8 and 12 (a Toda window holds up to 11 sites), in both row
    # orders: the K-wide record columns keep each point's bits wherever it
    # sits in the stack
    for k in [*range(1, 9), 12]:
        for rows in (list(range(k)), list(range(k))[::-1]):
            for idx in index_sets:
                vals = sigma_deriv(ctx, idx, points[rows])
                assert isinstance(vals, list) and len(vals) == k
                assert [_bits(v) for v in vals] == [_bits(singles[idx][r]) for r in rows]
    assert np.array_equal(sigma_deriv(ctx, (), points), [sigma(ctx, u) for u in points])
    assert np.array_equal(sigma_natural(ctx, 1, points),
                          [sigma_natural(ctx, 1, u) for u in points])
    # the order-0 pass sums its terms against one row of ones, with no store
    tp = _bound(ctx, 0).theta
    assert tp.rows.shape == (1, len(tp.plan.points)) and tp.slots == {}
    # zeta and wp_matrix read log theta from the context's bound pass of the
    # partials of theta, with rows to order 1 or 2 along the unit vectors of
    # z: both agree with the sigma records along e_i
    units = np.eye(genus, dtype=complex)
    for i in labels:
        recs = _sigma_jets(ctx, points, 1, units[i - 1], units[i - 1])
        for rec, u in zip(recs, points):
            assert abs(zeta(ctx, i, u) - rec[1] / rec[0]) <= 1e-12 * abs(rec[1] / rec[0])
    for rec, u in zip(_sigma_jets(ctx, points, 2, units[0], units[-1]), points):
        m10, m01, m20, m11, m02 = rec[5][:5]
        k12 = m11 - m10 * m01
        cumulants = np.array([[m20 - m10 * m10, k12], [k12, m02 - m01 * m01]])
        want = ctx.kappa - cumulants[:genus, :genus]
        assert np.max(np.abs(wp_matrix(ctx, u) - want)) <= 1e-10 * np.max(np.abs(want))
    assert len(_bound(ctx, 2).theta.exps) == (3, 6)[genus - 1]
    # a warm store reads the bits of a cleared one, on every path
    warm = {idx: sigma_deriv(ctx, idx, points) for idx in index_sets}

    def log_theta_bits():
        out = []
        for u in points[:3]:
            ctx._wp.clear()  # a pass of its own, not the kept matrix
            out.append(wp_matrix(ctx, u).tobytes())
            out.extend(_bits(zeta(ctx, i, u)) for i in labels)
        return out

    warm_log_theta = log_theta_bits()
    ctx._passes.clear()
    for idx in index_sets:
        assert [_bits(v) for v in sigma_deriv(ctx, idx, points)] == [_bits(v) for v in warm[idx]]
    ctx._passes.clear()
    assert log_theta_bits() == warm_log_theta


@pytest.mark.parametrize("genus", [1, 2])
def test_sigma_deriv_matches_the_former_product_rule(ctx1, ctx2, genus):
    # every index set, at single points and in stacks of 1, 2 and 6, within
    # 1e-14 of |env| L1 (the scale of sigma_with_scale), fixed before
    # sigma_deriv read its partials from the one per-point assembly
    ctx = ctx1 if genus == 1 else ctx2
    labels = range(1, genus + 1)
    index_sets = [()] + [(i,) for i in labels] + [(i, j) for i in labels for j in labels]
    rng = np.random.default_rng(60 + genus)
    for k in (1, 2, 6):
        stack = 0.4 * (rng.normal(size=(k, genus)) + 1j * rng.normal(size=(k, genus)))
        scales = [sigma_with_scale(ctx, u)[1] for u in stack]
        for idx in index_sets:
            labels0 = tuple(i - 1 for i in idx)
            want = [former_partial(ctx, jet, labels0)
                    for jet in former_jet(ctx, stack, len(idx))]
            for got in (sigma_deriv(ctx, idx, stack), [sigma_deriv(ctx, idx, u) for u in stack]):
                for value, ref, scale in zip(got, want, scales, strict=True):
                    assert abs(value - ref) <= 1e-14 * scale


@pytest.mark.parametrize("k", [2, 3, 6])
def test_single_point_entries_refuse_a_stack(ctx1, ctx2, k):
    # the stack, and the same k g numbers flattened to one u of the wrong
    # length, which was read as the stack's first point
    for ctx in (ctx1, ctx2):
        g = ctx.genus
        stack = 0.1 * (np.arange(k * g) + 0.5j).reshape(k, g)
        d = np.ones(g)
        for u in (stack, stack.ravel()):
            for call in (lambda: sigma(ctx, u), lambda: sigma_with_scale(ctx, u),
                         lambda: zeta(ctx, 1, u), lambda: wp(ctx, 1, 1, u),
                         lambda: wp_matrix(ctx, u)):
                with pytest.raises(ValueError, match="one point expected"):
                    call()


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 2), (4, 1, 2)])
def test_stack_entries_refuse_a_wrong_last_axis(ctx2, shape):
    # a 1-D or (K, g) u with a last axis other than g, or a deeper array
    u = 0.1 * (np.arange(np.prod(shape)) + 0.5j).reshape(shape)
    d = np.ones(2)
    for call in (lambda: sigma_deriv(ctx2, (), u), lambda: sigma_deriv(ctx2, (1,), u),
                 lambda: sigma_deriv(ctx2, (1, 2), u), lambda: sigma_jet2(ctx2, u, d, d),
                 lambda: sigma_natural(ctx2, 1, u)):
        with pytest.raises(ValueError, match=r"u of shape \(2,\) or \(K, 2\) expected"):
            call()


def test_leg_nodes_are_the_two_levels_read_only():
    nodes, weights = _leg_nodes()
    assert _leg_nodes()[0] is nodes
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    (t1, w1), (t2, w2) = _gauss_nodes(48), _gauss_nodes(96)
    assert np.array_equal(nodes, np.concatenate([t1, t2]))
    assert np.array_equal(weights, np.concatenate([w1, w2]))


class _BasepointEngine:
    """The former Abel engine: routed legs from a basepoint near infinity.

    The tail from infinity to the basepoint is integrated once; targets are
    reached along straight legs with left-hand detours around branch points,
    and a branch-point target through a last square-root leg. Images are
    not reduced modulo the lattice.
    """

    ANGLE = 1.2  # direction of the basepoint

    def __init__(self, curve):
        self.curve = curve
        self.tol = 1e-11
        self.x_base = 10.0 * curve.scale * np.exp(1j * self.ANGLE)
        self.tail, self.y_base = self._tail_integral()

    def _min_dist(self, z):
        return float(np.min(np.abs(z - self.curve.branch_points)))

    def _tail_integral(self):
        def level(n):
            s, w = _gauss_nodes(n)
            x = self.x_base / s**2
            y = _continuous_sqrt(self.curve.f(x), 0, np.sqrt(complex(self.curve.f(x[0]))))
            jac = -2.0 * self.x_base / s**3
            forms = _monomials(x, self.curve.genus)
            return (np.sum(((w * forms) * jac) / (2.0 * y), axis=-1),
                    self.x_base / s[-1] ** 2, y[-1])

        (cur, x_last, y_end), _ = _refine(level, 96, 10 * self.tol * self.curve.scale, 384)
        return cur, _continue_y(self.curve, x_last, self.x_base, y_end, self._min_dist)

    def _leg(self, z0, z1, y0, depth=0):
        if depth > 24:
            raise QuadratureNonConvergence("Abel segment subdivision stalled")
        t, w = _leg_nodes()
        x = z0 + (z1 - z0) * t
        fx = self.curve.f(x)
        y = np.concatenate([_continuous_sqrt(fx[:LEG_SPLIT], 0, y0),
                            _continuous_sqrt(fx[LEG_SPLIT:], 0, y0)])
        integrand = ((w * _monomials(x, self.curve.genus)) * (z1 - z0)) / (2.0 * y)
        v1 = np.sum(integrand[:, :LEG_SPLIT], axis=-1)
        v2 = np.sum(integrand[:, LEG_SPLIT:], axis=-1)
        if np.max(np.abs(v2 - v1)) > self.tol * self.curve.scale:
            zm = 0.5 * (z0 + z1)
            left, ym2 = self._leg(z0, zm, y0, depth + 1)
            right, y_end = self._leg(zm, z1, ym2, depth + 1)
            return left + right, y_end
        return v2, _continue_y(self.curve, z0 + (z1 - z0) * 0.99, z1, y[-1], self._min_dist)

    def _route(self, z0, z1):
        margin = 0.08 * self.curve.scale
        for e in self.curve.branch_points:
            seg = z1 - z0
            t = ((e - z0) * np.conj(seg)).real / abs(seg) ** 2
            if 0.03 < t < 0.97:
                foot = z0 + t * seg
                if abs(e - foot) < margin and abs(e - z1) > 1e-12:
                    w = e + 1j * seg / abs(seg) * max(2.5 * abs(e - foot),
                                                       0.15 * self.curve.scale)
                    return self._route(z0, w) + self._route(w, z1)[1:]
        return [z0, z1]

    def _final_branch_leg(self, xa, e_idx, ya):
        e = self.curve.branch_points[e_idx]
        s0 = np.sqrt(complex(xa - e))
        others = np.delete(self.curve.branch_points, e_idx)

        def level(n):
            t, w = _gauss_nodes(n)
            x = e + (xa - e) * t**2
            gvals = np.prod(x[:, None] - others[None, :], axis=1)
            sqrt_g = _continuous_sqrt(gvals, len(t) - 1, ya / s0)
            return (-s0 * np.sum((w * _monomials(x, self.curve.genus)) / sqrt_g, axis=-1),)

        (vals,), _ = _refine(level, 64, 50 * self.tol * self.curve.scale, 256)
        return vals

    def to_point(self, p):
        branch_target = self._min_dist(p.x) < 1e-10 * self.curve.scale
        if branch_target:
            e_idx = int(np.argmin(np.abs(p.x - self.curve.branch_points)))
            end = self.curve.branch_points[e_idx] + 0.25 * self.curve.scale \
                * np.exp(1j * self.ANGLE)
        else:
            end = p.x
        waypoints = self._route(self.x_base, end)
        total, y = self.tail.copy(), self.y_base
        for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
            vals, y = self._leg(z0, z1, y)
            total += vals
        if branch_target:
            return total + self._final_branch_leg(waypoints[-1], e_idx, y)
        return total if abs(y - p.y) <= abs(y + p.y) else -total


def _near_points(curve, rng, radii, per_radius):
    """Points at the given distances (times scale) from every branch point."""
    pts = []
    for e in curve.branch_points:
        for r in radii:
            for x in e + r * curve.scale * np.exp(1j * rng.uniform(0, 2 * np.pi, per_radius)):
                pts.append(CurvePoint(x, rng.choice([-1.0, 1.0]) * np.sqrt(complex(curve.f(x)))))
    return pts


# y^2 = x (x - 0.01) (x - 1): a point's leg from 0 or 0.01 passes close to
# the other one of the pair, so its integrand varies fast and the leg halves
CLOSE_PAIR_G1 = make_curve(1, [0.0, 0.01, -1.01])
# complex coefficients; the branch point 2e-7 + 0.3i lies 1e-7 of its length
# from the lexicographic segment (-i, i), so ``build_cycles`` takes the order
# of greatest relative clearance
FALLBACK_G2 = make_curve(2, np.poly([-1.3 + 0.2j, -1j, 1j, 2e-7 + 0.3j, 1.5 - 0.3j])[:0:-1])


@pytest.mark.parametrize("curve", [make_curve(1, [0, -1, 0]),
                                   make_curve(2, [1, 0, 0, 0, 0]), CLOSE_PAIR_G1,
                                   FALLBACK_G2])
def test_anchored_images_agree_with_the_basepoint_engine(curve, monkeypatch):
    periods = compute_periods(curve)
    engine, oracle = _AbelEngine(curve, periods), _BasepointEngine(curve)
    rng = np.random.default_rng(34)
    pts = random_curve_points(curve, rng, 150)
    pts += _near_points(curve, rng, (1e-3, 0.02, 0.3), 4)
    pts += [CurvePoint(complex(e), 0j) for e in curve.branch_points]
    pts += [curve.point(x, sheet) for sheet in (0, 1)
            for x in 20.0 * curve.scale * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))]
    assert len(pts) >= 200
    legs = []
    original = _AbelEngine._leg

    def counted(self, *args):
        legs.append(args)
        return original(self, *args)

    monkeypatch.setattr(_AbelEngine, "_leg", counted)
    for p in pts:
        img = engine.to_point(p)
        assert lattice_distance(periods, img - oracle.to_point(p)) <= 1e-12
        # reduced: lattice coordinates within half a generator of zero
        assert max(np.max(np.abs(c)) for c in lattice_decompose(periods, img)) <= 0.5 + 1e-12
        if p.y == 0:  # a branch point's image is a half period
            assert lattice_distance(periods, 2.0 * img) < 1e-12
    if curve is FALLBACK_G2:
        assert not np.array_equal(periods.chain, curve.branch_points)
    affine = len(pts) - curve.branch_points.size
    if curve is CLOSE_PAIR_G1:
        assert len(legs) > affine  # some legs were halved
    else:
        assert len(legs) == affine


# y^2 = x (x - 0.01) (x + 1) (x - 1) (x - 2): the genus-two close pair
CLOSE_PAIR_G2 = make_curve(2, np.poly([-1.0, 0.0, 0.01, 1.0, 2.0])[:0:-1])


@pytest.mark.parametrize("curve", [CLOSE_PAIR_G1, CLOSE_PAIR_G2])
def test_batched_images_equal_one_point_calls(curve, monkeypatch):
    engine = _AbelEngine(curve, compute_periods(curve))
    rng = np.random.default_rng(35)
    # the leg to x = i scale leaves 0 past 0.01 and halves; a point 1e-3 scale
    # from a branch point; a branch point, which maps to its anchor; infinity
    halving = curve.point(1j * curve.scale, 0)
    pool = [halving, *_near_points(curve, rng, (1e-3,), 1)[:1],
            CurvePoint(complex(curve.branch_points[-1]), 0j), INFINITY,
            *random_curve_points(curve, rng, 6)]
    single = {id(p): engine.to_point(p) for p in pool}
    for k in range(1, 7):
        for start in range(len(pool)):
            pts = [pool[(start + i) % len(pool)] for i in range(k)]
            if k > 1:
                pts[-1] = pts[0]  # one object passed twice
            imgs = engine.to_points(pts)
            assert imgs.shape == (k, curve.genus)
            for p, img in zip(pts, imgs):
                assert np.array_equal(img, single[id(p)])
    legs = []
    original = _AbelEngine._leg

    def counted(self, *args):
        legs.append(args)
        return original(self, *args)

    monkeypatch.setattr(_AbelEngine, "_leg", counted)
    engine.to_points([pool[-1], halving, pool[-2]])
    # one node pass for the three legs at depth 0; after it, only halves of
    # the halving point's leg, two to a pass
    assert len(legs[0][0]) == 3 and legs[0][-1] == 0 and len(legs) > 1
    for js, xp, factor, s_hi, depth in legs[1:]:
        assert depth >= 1 and len(xp) == 2 and np.all(xp == halving.x)


# y^2 = x (x - 4e-4) (x - 8e-4) (x - 1) (x - 2): two branch points within 1e-3 of 0 on
# one side; the legs from 0 pair them, so both ratios of that pair start near 0
CLOSE_TRIPLE_G2 = make_curve(2, np.poly([0.0, 4e-4, 8e-4, 1.0, 2.0])[:0:-1])


def _seeded_generic_curves(seed, count):
    """Monic curves with N(0, 1) coefficients, genus 1 and 2, real and complex."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        genus = 1 + i % 2
        lam = rng.normal(size=2 * genus + 1)
        if i % 4 >= 2:
            lam = lam + 1j * rng.normal(size=2 * genus + 1)
        yield make_curve(genus, lam)


def _former_kernel_moves(curve, seed, count):
    """Lattice distances, over scale, of the images from the former kernel; its passes."""
    engine = _AbelEngine(curve, compute_periods(curve))
    rng = np.random.default_rng(seed)
    pts = random_curve_points(curve, rng, count) + _near_points(curve, rng, (1e-3, 0.02, 0.3), 2)
    pts += [curve.point(1j * curve.scale, 0), CurvePoint(complex(curve.branch_points[-1]), 0j),
            INFINITY]
    passes = []
    former = former_to_points(engine, pts, passes)
    moves = [lattice_distance(engine.periods, new - old) / curve.scale
             for new, old in zip(engine.to_points(pts), former)]
    return moves, passes


@pytest.mark.parametrize("curve", [make_curve(1, [0, -1, 0]), make_curve(2, [1, 0, 0, 0, 0]),
                                   CLOSE_PAIR_G1, CLOSE_PAIR_G2, FALLBACK_G2, CLOSE_TRIPLE_G2])
def test_paired_roots_equal_the_former_kernel(curve):
    # one root per pair of ratios, formed without division over the nodes,
    # against one division and one root per ratio and a point at a time
    moves, passes = _former_kernel_moves(curve, 36, 60)
    assert max(moves) <= 1e-13
    if curve in (CLOSE_PAIR_G1, CLOSE_PAIR_G2, CLOSE_TRIPLE_G2):
        assert any(depth > 0 for _, depth in passes)  # halved legs are compared too
    if curve is CLOSE_TRIPLE_G2:
        # on a leg from 0 to x_P = -0.05 both ratios of the close pair start
        # within 0.02 of 0, the boundary of the disk |z - 1| <= 1
        engine = _AbelEngine(curve, compute_periods(curve))
        j = int(np.argmin(np.abs(engine.chain)))
        slots = [i for i, k in enumerate(engine.others[j]) if 0 < abs(k) < 1e-3]
        assert slots in ([0, 1], [2, 3])  # one pair of the node pass
        assert max(abs(k / (-0.05 - k)) for k in engine.others[j][slots]) < 0.02
        pts = [curve.point(x, sheet) for x in -0.05 * np.exp(1j * np.linspace(-1.0, 1.0, 5))
               for sheet in (0, 1)]
        for new, old in zip(engine.to_points(pts), former_to_points(engine, pts)):
            assert lattice_distance(engine.periods, new - old) <= 1e-13 * curve.scale


def test_paired_roots_equal_the_former_kernel_on_generic_curves():
    for curve in _seeded_generic_curves(38, 40):
        moves, _ = _former_kernel_moves(curve, 39, 20)
        assert max(moves) <= 1e-13


def test_lattice_matrix_is_built_once_and_read_only(ctx2):
    pd = ctx2.periods
    mat = pd.lattice_matrix()
    assert mat is pd.lattice_matrix()
    assert not mat.flags.writeable
    gens = np.hstack([2.0 * pd.omega1, 2.0 * pd.omega2])
    assert np.array_equal(mat, np.vstack([gens.real, gens.imag]))


def test_lattice_inverse_is_cached_and_reduction_picks_the_solved_vector(ctx1, ctx2):
    # the cached inverse replaces a solve per call; on seeded draws the
    # rounded coordinates, so the lattice vector taken off, are those of
    # the solve
    for ctx in (ctx1, ctx2):
        pd, g = ctx.periods, ctx.genus
        inv = pd.lattice_inverse()
        assert inv is pd.lattice_inverse() and not inv.flags.writeable
        assert np.allclose(inv @ pd.lattice_matrix(), np.eye(2 * g), atol=1e-12)
        rng = np.random.default_rng(90 + g)
        for _ in range(200):
            u = 3.0 * (rng.normal(size=g) + 1j * rng.normal(size=g))
            solved = np.linalg.solve(pd.lattice_matrix(), np.concatenate([u.real, u.imag]))
            u1, u2 = lattice_decompose(pd, u)
            assert np.array_equal(np.round(np.concatenate([u1, u2])), np.round(solved))
            shift = 2.0 * pd.omega1 @ np.round(solved[:g]) + 2.0 * pd.omega2 @ np.round(solved[g:])
            assert np.array_equal(reduce_mod_lattice(pd, u), u - shift)
