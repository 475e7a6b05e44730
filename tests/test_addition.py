import numpy as np
import pytest

from sigmatoda.addition import (
    baker_residual,
    baker_rhs,
    deg1_residual,
    deg2_F_check,
    fay_residual,
    fs_det,
    fs_residual,
    fs_residual_report,
    mu_n,
    point_multiples,
    reduce_divisor,
    thm_add_residual,
    xi,
)
from sigmatoda.curves import (
    CurvePoint,
    baker_f2,
    f12,
    make_curve,
    random_curve_points,
)
from sigmatoda.errors import ConfluentInput
from sigmatoda.polyutil import poly_from_roots, polyval
from sigmatoda.sigma import abel_map, lattice_distance, sigma_context, wp


@pytest.fixture(scope="module")
def ctx1():
    return sigma_context(make_curve(1, [0, -1, 0]))


@pytest.fixture(scope="module")
def ctx2():
    return sigma_context(make_curve(2, [1, 0, 0, 0, 0]))


def chord_third(curve, p, q):
    """Third intersection of the line through p, q with a genus-1 curve."""
    if abs(p.x - q.x) > 1e-12:
        slope = (q.y - p.y) / (q.x - p.x)
    else:
        slope = curve.f_prime(p.x) / (2 * p.y)
    x3 = slope**2 - curve.lam_at(2) - p.x - q.x
    return CurvePoint(x3, p.y + slope * (x3 - p.x))


def test_fs_det_small_cases(ctx1):
    curve = ctx1.curve
    p1 = CurvePoint(2.0, 1.0)
    p2 = CurvePoint(5.0, -3.0)
    assert fs_det(curve, [p1, p2]) == pytest.approx(3.0)  # x2 - x1
    assert fs_det(curve, [p1, p1]) == 0.0


def test_fs_det_collinearity_genus1(ctx1):
    rng = np.random.default_rng(0)
    curve = ctx1.curve
    p, q = random_curve_points(curve, rng, 2)
    t = chord_third(curve, p, q)
    assert abs(fs_det(curve, [p, q, t])) < 1e-9 * max(abs(p.x), abs(q.x)) ** 2


def test_fs_det_alternating(ctx2):
    rng = np.random.default_rng(1)
    pts = random_curve_points(ctx2.curve, rng, 4)
    base = fs_det(ctx2.curve, pts)
    swapped = fs_det(ctx2.curve, [pts[1], pts[0], pts[2], pts[3]])
    assert swapped == pytest.approx(-base, rel=1e-10)


def test_fs_residual_pair(ctx1, ctx2):
    rng = np.random.default_rng(2)
    for ctx, tol in ((ctx1, 1e-8), (ctx2, 1e-6)):
        for _ in range(6):
            pts = random_curve_points(ctx.curve, rng, 2)
            assert fs_residual(ctx, pts) < tol


def test_fs_residual_coincident_zero(ctx1):
    rng = np.random.default_rng(3)
    p = random_curve_points(ctx1.curve, rng, 1)[0]
    assert fs_residual(ctx1, [p, p]) == 0.0


def test_fs_residual_coincident_across_a_rounding_bin(ctx1):
    # x = 2.0000000015 -+ 3e-13 fall in two bins of round(x / 1e-9), but the
    # two points are 6e-13 apart: one point by the pairwise rule
    x = 2.0000000015
    pts = [ctx1.curve.point(x - 3e-13), ctx1.curve.point(x + 3e-13)]
    assert fs_residual(ctx1, pts) == 0.0
    assert fs_residual_report(ctx1, pts) == {"residual": 0.0, "sign_anomaly": False}


def test_fs_sign_anomaly_reported(ctx1):
    # net sigma homogeneity is odd for three points, so only the magnitude
    # is convention independent; the report must flag the sign
    rng = np.random.default_rng(4)
    pts = random_curve_points(ctx1.curve, rng, 3)
    report = fs_residual_report(ctx1, pts)
    assert report["residual"] < 1e-8
    assert report["sign_anomaly"] in (True, False)


def test_mu_basics(ctx1, ctx2):
    rng = np.random.default_rng(5)
    p1 = random_curve_points(ctx1.curve, rng, 1)[0]
    probe = CurvePoint(5.0, np.sqrt(120.0))
    assert mu_n(ctx1.curve, probe, [p1]) == pytest.approx(probe.x - p1.x, rel=1e-12)
    base = random_curve_points(ctx2.curve, rng, 2)
    probe2 = random_curve_points(ctx2.curve, rng, 1)[0]
    fpoly = poly_from_roots([p.x for p in base])
    assert mu_n(ctx2.curve, probe2, base) == pytest.approx(
        polyval(fpoly, probe2.x), rel=1e-10)


def test_mu_vanishes_at_chord_point(ctx1):
    rng = np.random.default_rng(6)
    p, q = random_curve_points(ctx1.curve, rng, 2)
    t = chord_third(ctx1.curve, p, q)
    assert abs(mu_n(ctx1.curve, t, [p, q])) < 1e-9


def test_reduce_divisor_chord_oracle(ctx1):
    rng = np.random.default_rng(7)
    curve = ctx1.curve
    for _ in range(5):
        p, q = random_curve_points(curve, rng, 2)
        rd = reduce_divisor(curve, [p, q])
        t = chord_third(curve, p, q)
        assert len(rd.zeros) == 1
        assert rd.zeros[0].x == pytest.approx(t.x, rel=1e-9)
        assert rd.zeros[0].y == pytest.approx(t.y, rel=1e-9)
        # negated zero is the group-law sum
        assert rd.negated[0].y == pytest.approx(-t.y, rel=1e-9)


def test_reduce_divisor_involution_pair(ctx1):
    rng = np.random.default_rng(8)
    p = random_curve_points(ctx1.curve, rng, 1)[0]
    rd = reduce_divisor(ctx1.curve, [p, p.conj()])
    assert rd.zeros == ()
    assert lattice_distance(ctx1.periods, abel_map(ctx1, [p, p.conj()]).u) < 1e-9


def test_reduce_divisor_abel_consistency(ctx1, ctx2):
    rng = np.random.default_rng(9)
    for ctx, count in ((ctx1, 3), (ctx2, 3)):
        pts = random_curve_points(ctx.curve, rng, count)
        rd = reduce_divisor(ctx.curve, pts)
        # generic divisors reduce to exactly g extra zeros
        assert len(rd.zeros) == ctx.genus
        total = abel_map(ctx, list(pts) + list(rd.zeros)).u
        assert lattice_distance(ctx.periods, total) < 1e-7


def test_reduce_divisor_tangent_doubling(ctx1):
    rng = np.random.default_rng(10)
    p = random_curve_points(ctx1.curve, rng, 1)[0]
    rd = reduce_divisor(ctx1.curve, [p, p])
    u = abel_map(ctx1, [p]).u
    u2 = abel_map(ctx1, list(rd.negated)).u
    assert lattice_distance(ctx1.periods, 2 * u - u2) < 1e-8


def test_point_multiples_track_abel(ctx1):
    rng = np.random.default_rng(11)
    p = random_curve_points(ctx1.curve, rng, 1)[0]
    u = abel_map(ctx1, [p]).u
    for ell, div in enumerate(point_multiples(ctx1.curve, p, 5), start=1):
        ud = abel_map(ctx1, div).u
        assert lattice_distance(ctx1.periods, ell * u - ud) < 1e-7


def test_xi_symmetric_and_guards(ctx2):
    rng = np.random.default_rng(12)
    base = random_curve_points(ctx2.curve, rng, 2)
    v1, v2 = random_curve_points(ctx2.curve, rng, 2)
    assert xi(ctx2.curve, base, v1, v2) == pytest.approx(
        xi(ctx2.curve, base, v2, v1), rel=1e-12)
    # coincident primed points, then a repeated base point (F'(x_i) = 0)
    for call in (lambda: xi(ctx2.curve, base, v1, v1),
                 lambda: baker_rhs(ctx2.curve, [base[0], base[0]], v1.x, v2.x)):
        with pytest.raises(ConfluentInput):
            call()


def test_pair_addition_residuals(ctx1, ctx2):
    rng = np.random.default_rng(13)
    # genus 1: (1, 1) is the classical addition formula
    for _ in range(8):
        p, q = random_curve_points(ctx1.curve, rng, 2)
        assert thm_add_residual(ctx1, [p], [q]) < 1e-9
    for _ in range(6):
        base = random_curve_points(ctx2.curve, rng, 2)
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        assert thm_add_residual(ctx2, base, [v1, v2]) < 1e-6
        assert thm_add_residual(ctx2, base, [v1]) < 1e-6


def test_cor45_matches_general_identity(ctx2):
    from sigmatoda.sigma import sigma, sigma_natural

    rng = np.random.default_rng(14)
    base = random_curve_points(ctx2.curve, rng, 2)
    v1, v2 = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, base).u
    v = abel_map(ctx2, [v1, v2]).u
    lhs = sigma(ctx2, u + v) * sigma(ctx2, u - v) / (
        sigma(ctx2, u) ** 2 * sigma_natural(ctx2, 2, v) ** 2)
    assert abs(lhs + xi(ctx2.curve, base, v1, v2)) / max(abs(lhs), 1.0) < 1e-6
    assert thm_add_residual(ctx2, base, [v1, v2]) < 1e-6


def test_baker_and_fay(ctx2):
    rng = np.random.default_rng(15)
    for _ in range(6):
        base = random_curve_points(ctx2.curve, rng, 2)
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        assert baker_residual(ctx2, base, v1, v2) < 1e-6
        assert fay_residual(ctx2, base, v1, v2) < 1e-6


def test_fay_kernel_genus1_is_wp_of_sum(ctx1):
    rng = np.random.default_rng(16)
    for _ in range(5):
        v1, v2 = random_curve_points(ctx1.curve, rng, 2)
        kernel = (baker_f2(ctx1.curve, v1.x, v2.x) - 2 * v1.y * v2.y) \
            / (v1.x - v2.x) ** 2
        v = abel_map(ctx1, [v1, v2]).u
        assert abs(kernel - wp(ctx1, 1, 1, v)) < 1e-8 * max(1.0, abs(kernel))


def test_deg1_residual_and_confluent_limit(ctx2):
    rng = np.random.default_rng(17)
    base = random_curve_points(ctx2.curve, rng, 2)
    v1 = random_curve_points(ctx2.curve, rng, 1)[0]
    assert deg1_residual(ctx2, base, v1) < 1e-6
    # compare with -Xi(u, v) in the confluent limit v2 -> v1 on the curve
    u = abel_map(ctx2, base).u
    g = ctx2.genus
    target = f12(ctx2.curve, v1.x) - sum(
        wp(ctx2, i, j, u) * v1.x ** (i + j - 2)
        for i in range(1, g + 1) for j in range(1, g + 1))
    h = 1e-4
    x2 = v1.x + h
    y2 = np.sqrt(ctx2.curve.f(x2))
    if abs(y2 - v1.y) > abs(y2 + v1.y):
        y2 = -y2
    lim = -xi(ctx2.curve, base, v1, CurvePoint(x2, y2))
    assert abs(lim - target) < 1e-4 * max(1.0, abs(target))


def test_deg1_at_weierstrass_point_degenerates(ctx1):
    # y' = 0 forces 2v into the lattice, so both sides of the doubling
    # identity blow up; the evaluator must refuse rather than return junk
    from sigmatoda.errors import BranchPointSingularity

    rng = np.random.default_rng(18)
    base = random_curve_points(ctx1.curve, rng, 1)
    w = CurvePoint(1.0, 0.0)  # branch point of x^3 - x
    with pytest.raises(BranchPointSingularity):
        deg1_residual(ctx1, base, w)


def test_deg2_f_check(ctx1, ctx2):
    rng = np.random.default_rng(19)
    for ctx, tol in ((ctx1, 1e-9), (ctx2, 1e-6)):
        base = random_curve_points(ctx.curve, rng, ctx.genus)
        v1 = random_curve_points(ctx.curve, rng, 1)[0]
        assert deg2_F_check(ctx, base, v1) < tol


def test_baker_rhs_genus1_value(ctx1):
    # for genus 1 the bilinear sum collapses to wp(u)
    rng = np.random.default_rng(20)
    base = random_curve_points(ctx1.curve, rng, 1)
    v1, v2 = random_curve_points(ctx1.curve, rng, 2)
    u = abel_map(ctx1, base).u
    rhs = baker_rhs(ctx1.curve, base, v1.x, v2.x)
    assert abs(rhs - wp(ctx1, 1, 1, u)) < 1e-8 * max(1.0, abs(rhs))

