import importlib

import mpmath as mp
import numpy as np
import pytest

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
    ThetaDivisorPole,
)
from sigmatoda.periods import PeriodData
from sigmatoda.sigma import (
    _AbelEngine,
    _gauss_nodes,
    abel_map,
    lattice_distance,
    natural_index_set,
    reduce_mod_lattice,
    riemann_characteristics,
    sigma,
    sigma_context,
    sigma_deriv,
    sigma_flat,
    sigma_natural,
    sigma_sharp,
    translation_factors,
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


def test_characteristics_negative_control(ctx1):
    pd = ctx1.periods
    bad = PeriodData(pd.omega1 * (1 + 1e-3), pd.omega2, pd.eta1, pd.eta2,
                     pd.riemann * (1 + 1e-3), 0.0, 0.0)
    with pytest.raises(CharacteristicsNotFound):
        riemann_characteristics(ctx1.curve, bad)


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
    assert sigma_flat(ctx2, u) == pytest.approx(sigma(ctx2, u), rel=1e-14)
    assert sigma_sharp(ctx2, u) == pytest.approx(sigma_deriv(ctx2, (2,), u), rel=1e-14)


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
    # sigma_sharp is even on W_1 for even genus; sigma is odd everywhere here
    rng = np.random.default_rng(13)
    p = random_curve_points(ctx2.curve, rng, 1)[0]
    u = abel_map(ctx2, [p]).u
    assert sigma_sharp(ctx2, -u) == pytest.approx(sigma_sharp(ctx2, u), rel=1e-9)
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
    """Points passed to _AbelEngine.to_point, in call order."""
    seen = []
    original = _AbelEngine.to_point

    def counted(self, p):
        seen.append(p)
        return original(self, p)

    monkeypatch.setattr(_AbelEngine, "to_point", counted)
    return seen


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
    assert [id(x) for x in integrations] == [id(x) for x in (p, q, *base, v1, v2)]
    # a fresh copy of every point in every check integrates 15 times, same bits
    unshared = [thm_add_residual(ctx1, _fresh(p), _fresh(q)),
                thm_add_residual(ctx2, _fresh(*base), _fresh(v1, v2)),
                thm_add_residual(ctx2, _fresh(*base), _fresh(v1)),
                fay_residual(ctx2, _fresh(*base), *_fresh(v1, v2)),
                baker_residual(ctx2, _fresh(*base), *_fresh(v1, v2))]
    assert len(integrations) == 6 + 15
    assert unshared == shared


def test_equal_points_integrate_once_each(ctx2, integrations):
    p = random_curve_points(ctx2.curve, np.random.default_rng(22), 1)[0]
    twin = CurvePoint(p.x, p.y)
    assert twin == p and hash(twin) == hash(p)
    abel_map(ctx2, [p, twin, p, twin])
    assert [id(x) for x in integrations] == [id(p), id(twin)]
    assert np.array_equal(p._abel[ctx2.abel], twin._abel[ctx2.abel])


def test_abel_image_is_read_only_and_exact(ctx1, ctx2):
    rng = np.random.default_rng(23)
    for ctx in (ctx1, ctx2):
        branch = CurvePoint(complex(ctx.curve.branch_points[-1]), 0j)
        for p in [*random_curve_points(ctx.curve, rng, 3), branch]:
            u = abel_map(ctx, [p]).u
            assert list(p._abel) == [ctx.abel]
            img = p._abel[ctx.abel]
            with pytest.raises(ValueError):
                img[0] = 0.0
            assert np.array_equal(img, _AbelEngine(ctx.curve).to_point(p))
            assert np.array_equal(abel_map(ctx, [p]).u, u)


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
        # every entry on its own, (1, 2) and (2, 1) included
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


def test_wp_matrix_residuals_equal_the_former_sums(ctx1, ctx2):
    rng = np.random.default_rng(29)
    for ctx in (ctx1, ctx2):
        for _ in range(5):
            base = random_curve_points(ctx.curve, rng, ctx.genus)
            v1, v2 = random_curve_points(ctx.curve, rng, 2)
            assert baker_residual(ctx, base, v1, v2) == _former_baker(ctx, base, v1, v2)
            assert fay_residual(ctx, base, v1, v2) == _former_fay(ctx, base, v1, v2)
            assert deg1_residual(ctx, base, v1) == _former_deg1(ctx, base, v1)


def test_abel_third_quadrature_rules_are_checked(ctx2):
    # at tol 1e-40 no two rules agree (on y^2 = x^5 + 1 every pair differs by
    # roundoff at least): the tail and the branch leg raise instead of
    # returning their third rule unchecked
    engine = _AbelEngine(ctx2.curve)
    engine.tol = 1e-40
    with pytest.raises(QuadratureNonConvergence):
        engine._tail_integral()
    for k, e in enumerate(ctx2.curve.branch_points):
        xa = e + 0.25 * np.exp(1.2j)
        with pytest.raises(QuadratureNonConvergence):
            engine._final_branch_leg(xa, k, np.sqrt(complex(ctx2.curve.f(xa))))
