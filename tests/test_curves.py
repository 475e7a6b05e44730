import numpy as np
import pytest

from sigmatoda.curves import (
    CurvePoint,
    baker_f2,
    f12,
    make_curve,
    phi,
    random_curve_points,
    vandermonde,
)
from sigmatoda.errors import BadArity, BranchPointSingularity, DegenerateCurve
from sigmatoda.polyutil import poly_from_roots, polyval


def curve_g1():
    return make_curve(1, [0, -1, 0])  # y^2 = x^3 - x


def curve_g2():
    return make_curve(2, [1, 0, 0, 0, 0])  # y^2 = x^5 + 1


def test_make_curve_accepts_canonical_examples():
    c1 = curve_g1()
    assert c1.genus == 1
    c2 = curve_g2()
    assert c2.genus == 2


def test_make_curve_rejects_triple_root():
    with pytest.raises(DegenerateCurve):
        make_curve(1, [0, 0, 0])  # y^2 = x^3


def test_make_curve_rejects_wrong_arity():
    with pytest.raises(BadArity):
        make_curve(1, [0, -1])
    with pytest.raises(BadArity):
        make_curve(0, [])


def test_branch_points_cubic():
    e = curve_g1().branch_points
    assert np.allclose(e, [-1.0, 0.0, 1.0], atol=1e-12)


def test_branch_points_quintic_roots_of_minus_one():
    e = curve_g2().branch_points
    assert np.allclose(np.sort(np.angle(e**5)), 0.0, atol=1e-10) or np.allclose(
        np.abs(e**5 + 1.0), 0.0, atol=1e-10)
    assert np.allclose(np.abs(e), 1.0, atol=1e-12)


def test_branch_points_factored_constructor():
    es = np.array([2.0, -1.0, -1.0 + 0.25])
    coeffs = np.poly(es)[::-1]  # ascending, monic
    curve = make_curve(1, coeffs[:-1])
    assert np.allclose(np.sort_complex(curve.branch_points), np.sort_complex(es),
                       atol=1e-10)


def test_phi_case_split():
    c1 = curve_g1()
    p = CurvePoint(2.0, 3.7)
    assert phi(c1, 2, p) == pytest.approx(3.7)  # i - g = 1 odd -> y
    c2 = curve_g2()
    q = CurvePoint(1.3, -0.9)
    assert phi(c2, 3, q) == pytest.approx(-0.9)  # x^0 y
    assert phi(c2, 4, q) == pytest.approx(1.3**3)  # x^{g + 1}


def test_baker_f2_diagonal_and_origin():
    rng = np.random.default_rng(7)
    for curve in (curve_g1(), curve_g2()):
        for _ in range(25):
            x = complex(rng.normal(), rng.normal())
            assert baker_f2(curve, x, x) == pytest.approx(2.0 * curve.f(x), rel=1e-12)
    assert baker_f2(curve_g1(), 0.0, 0.0) == 0.0


def test_baker_f2_hand_expansion():
    # y^2 = x^3 - x: f(x1,x2) = (x1 + x2) x1 x2 + 2*(-1) x1 x2 ... term by term:
    # i=0: lam1*(x1+x2) + 2 lam0 = -(x1+x2); i=1: x1 x2 (lam3 (x1+x2) + 2 lam2)
    x1, x2 = 1.0, 2.0
    expected = -(x1 + x2) + x1 * x2 * (x1 + x2)
    assert baker_f2(curve_g1(), x1, x2) == pytest.approx(expected, rel=1e-14)
    assert baker_f2(curve_g1(), x1, x2) == pytest.approx(
        baker_f2(curve_g1(), x2, x1), rel=1e-14)


def test_f12_matches_two_point_limit():
    rng = np.random.default_rng(3)
    for curve in (curve_g1(), curve_g2()):
        for _ in range(10):
            x = complex(rng.normal(), rng.normal())
            if np.min(np.abs(x - curve.branch_points)) < 0.3:
                continue
            y = np.sqrt(curve.f(x))

            def kernel(h):
                x1, x2 = x - h / 2, x + h / 2
                y1, y2 = np.sqrt(curve.f(x1)), np.sqrt(curve.f(x2))
                if abs(y1 - y) > abs(y1 + y):
                    y1 = -y1
                if abs(y2 - y) > abs(y2 + y):
                    y2 = -y2
                return (baker_f2(curve, x1, x2) - 2 * y1 * y2) / (x1 - x2) ** 2

            # second-order limit, Richardson-extrapolated to kill the h^2 term
            limit = kernel(5e-3) + (kernel(5e-3) - kernel(5e-2)) / 99.0
            assert f12(curve, x) == pytest.approx(limit, rel=1e-6, abs=1e-6)


def test_f12_duplication_value_genus1():
    # for y^2 = x^3 - x the limit equals the x-coordinate of the doubled point
    x = 2.0
    fp = 3 * x**2 - 1
    expected = fp**2 / (4 * (x**3 - x)) - 2 * x
    assert f12(curve_g1(), x) == pytest.approx(expected, rel=1e-13)


def test_f12_branch_point_raises():
    with pytest.raises(BranchPointSingularity):
        f12(curve_g1(), 1.0)


def test_f_poly_and_vandermonde_basics():
    assert vandermonde([0.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert vandermonde([1.0, 1.0, 5.0]) == 0.0
    coeffs = poly_from_roots([1.0, -1.0, 0.0])
    assert np.allclose(coeffs, [0, -1, 0, 1])  # x^3 - x ascending


def test_vandermonde_matches_determinant():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        xs = rng.normal(size=n) + 1j * rng.normal(size=n)
        mat = np.vander(xs, increasing=True)
        assert vandermonde(xs) == pytest.approx(np.linalg.det(mat), rel=1e-8)


def test_phi_linear_independence_on_curve():
    rng = np.random.default_rng(5)
    for curve in (curve_g1(), curve_g2()):
        n = 2 * curve.genus + 3
        pts = random_curve_points(curve, rng, n)
        mat = np.array([[phi(curve, i, p) for i in range(n)] for p in pts])
        sv = np.linalg.svd(mat, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


def test_curve_file_round_trip_polyval():
    curve = curve_g2()
    x = 1.7 + 0.3j
    assert curve.f(x) == pytest.approx(polyval(curve.f_coeffs, x), rel=1e-14)
