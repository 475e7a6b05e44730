from math import comb

import numpy as np
import pytest

from sigmatoda.curves import (
    CurvePoint,
    make_curve,
    phi_monomial,
    phi_series,
    random_curve_points,
    y_jet,
)
from sigmatoda.division import (
    TorsionCandidate,
    alpha_degree,
    cantor_alpha,
    cantor_psi,
    divisibility_check,
    elliptic_psi_oracle,
    kiepert_psi,
    phi_roots,
    torsion_to_frame,
    xi_set,
    y_exponent,
)
from sigmatoda.errors import (
    BranchPointSingularity,
    MultiplesNotDistinct,
    NotTorsion,
)
from sigmatoda.polyutil import aberth_roots, polyval
from sigmatoda.sigma import abel_map, lattice_distance, sigma_context
from sigmatoda.toda import flaschka


@pytest.fixture(scope="module")
def g1():
    return make_curve(1, [0, -1, 0])


@pytest.fixture(scope="module")
def g2():
    return make_curve(2, [1, 0, 0, 0, 0])


@pytest.fixture(scope="module")
def ctx1(g1):
    return sigma_context(g1)


def test_y_jet_square_matches_f(g1, g2):
    rng = np.random.default_rng(0)
    for curve in (g1, g2):
        for _ in range(5):
            x = complex(rng.normal(), rng.normal())
            if abs(curve.f(x)) < 0.1:
                continue
            jets = y_jet(curve, x, 6)
            square = np.convolve(jets, jets)[:7]
            shift = np.array([curve.f(x)], dtype=complex)
            coeffs = curve.f_coeffs
            expected = []
            from sigmatoda.polyutil import polyder

            d = coeffs
            fact = 1.0
            for k in range(7):
                if k > 0:
                    d = polyder(d)
                    fact *= k
                expected.append(polyval(d, x) / fact if d.size else 0.0)
            assert np.max(np.abs(square - np.array(expected))) < 1e-10


def test_y_jet_first_terms(g1):
    x = 2.0
    jets = y_jet(g1, x, 2)
    y0 = np.sqrt(6.0)
    assert jets[0] == pytest.approx(y0)
    assert jets[1] == pytest.approx((3 * 4 - 1) / (2 * y0))
    f, fp, fpp = 6.0, 11.0, 12.0
    assert jets[2] == pytest.approx((2 * f * fpp - fp**2) / (8 * f * y0) / 2 * 2,
                                    rel=1e-12)


def test_cantor_alpha_classical_values(g1):
    a3 = cantor_alpha(g1, 3)
    assert a3.y_exponent == 0
    np.testing.assert_allclose(a3.alpha.real, [-1, 0, -6, 0, 3], atol=1e-12)
    a4 = cantor_alpha(g1, 4)
    assert a4.y_exponent == 1
    normalized = a4.alpha / a4.alpha[-1]
    np.testing.assert_allclose(normalized.real, [1, 0, -5, 0, -5, 0, 1], atol=1e-12)
    a2 = cantor_alpha(g1, 2)
    assert a2.degree == 0  # psi_2 is a pure (2y) factor


def test_cantor_alpha_matches_recurrence_oracle(g1):
    for n in range(2, 9):
        mine = cantor_alpha(g1, n).alpha
        oracle = elliptic_psi_oracle(g1, n)
        assert mine.size == oracle.size
        ratio = mine[-1] / oracle[-1]
        assert np.max(np.abs(mine - ratio * oracle)) < 1e-9 * np.max(np.abs(mine))


def test_alpha_degree_formula(g1, g2):
    for curve in (g1, g2):
        g = curve.genus
        for n in range(g + 2, 9):
            assert cantor_alpha(curve, n).degree == alpha_degree(g, n)


def test_y_exponent_table():
    assert y_exponent(1, 2) == 1
    assert y_exponent(1, 3) == 0
    assert y_exponent(1, 4) == 1
    assert y_exponent(2, 7) == 3  # n - g odd
    assert y_exponent(2, 8) == 1  # n - g even


def test_cantor_psi_consistent_with_alpha(g2):
    rng = np.random.default_rng(1)
    for n in (3, 5, 6):
        dp = cantor_alpha(g2, n)
        for p in random_curve_points(g2, rng, 3):
            direct = cantor_psi(g2, n, p)
            via_alpha = (2 * p.y) ** dp.y_exponent * polyval(dp.alpha, p.x)
            assert direct == pytest.approx(via_alpha, rel=1e-9)


def test_kiepert_matches_cantor_up_to_constant(g1, g2):
    rng = np.random.default_rng(2)
    for curve, n_max, tol in ((g1, 6, 1e-8), (g2, 5, 1e-6)):
        for n in range(2, n_max + 1):
            pts = random_curve_points(curve, rng, 10)
            ratios = np.array([kiepert_psi(curve, n, p) / cantor_psi(curve, n, p)
                               for p in pts])
            mean = np.mean(ratios)
            assert np.std(ratios) < tol * abs(mean)


def test_kiepert_small_cases(g1):
    rng = np.random.default_rng(3)
    p = random_curve_points(g1, rng, 1)[0]
    assert kiepert_psi(g1, 2, p) == pytest.approx(2 * p.y, rel=1e-12)
    with pytest.raises(BranchPointSingularity):
        kiepert_psi(g1, 3, CurvePoint(1.0, 0.0))


def _series_by_running_product(g, i, x, yj, order):
    """The former Kiepert basis series: binomials as running products."""
    expo, has_y = phi_monomial(g, i)
    xs = np.zeros(order, dtype=complex)
    for r in range(min(order, expo + 1)):
        c = 1.0
        for k in range(r):
            c = c * (expo - k) / (k + 1)
        xs[r] = c * x ** (expo - r)
    return np.convolve(xs, yj)[:order] if has_y else xs


def _series_by_column_loop(g, i, x, yj, order):
    """The former confluent-row column of the addition determinants."""
    expo, has_y = phi_monomial(g, i)
    xs = np.array([comb(expo, r) * x ** (expo - r) if r <= expo else 0.0
                   for r in range(order)], dtype=complex)
    return np.convolve(xs, yj)[:order] if has_y else xs


def test_phi_series_matches_both_former_encodings(g1, g2):
    # both determinant families read one basis series; it must equal each
    # former encoding bit for bit
    rng = np.random.default_rng(21)
    for curve in (g1, g2):
        g = curve.genus
        for p in random_curve_points(curve, rng, 5):
            for order in range(1, 7):
                yj = y_jet(curve, p.x, order - 1, p.y)
                for i in range(2 * g + 5):
                    got = phi_series(g, i, p.x, yj, order)
                    for reference in (_series_by_running_product,
                                      _series_by_column_loop):
                        assert np.array_equal(got, reference(g, i, p.x, yj, order))


def test_phi_roots_lift_both_sheets(g1):
    roots = phi_roots(g1, 3)
    assert len(roots) == 8  # degree 4, two sheets each
    for p in roots:
        assert abs(p.y**2 - g1.f(p.x)) < 1e-8


def test_xi_set_known_torsion_values(g1):
    xs3 = [c.point.x for c in xi_set(g1, 3)]
    target3 = np.sqrt(9 + 6 * np.sqrt(3)) / 3
    assert min(abs(x - target3) for x in xs3) < 1e-9
    xs4 = [c.point.x for c in xi_set(g1, 4)]
    assert min(abs(x - (1 + np.sqrt(2))) for x in xs4) < 1e-9


def test_xi_set_genus1_window_is_single_poly(g1):
    for cand in xi_set(g1, 4):
        assert len(cand.residuals) == 1


def test_torsion_to_frame_certificates(ctx1, g1):
    for order in (3, 4):
        cand = max((c for c in xi_set(g1, order)
                    if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
                   key=lambda c: c.point.x.real)
        frame = torsion_to_frame(ctx1, cand, order)
        assert frame.periodic == order
        c = 2.0 * abel_map(ctx1, [cand.point]).u
        assert lattice_distance(ctx1.periods, order * c) < 1e-7
        # spatial periodicity of the Flaschka variables
        for k in range(0, 2 * order + 1):
            a0, b0 = flaschka(frame, k, 0.011)
            a1, b1 = flaschka(frame, k + order, 0.011)
            assert abs(a0 - a1) < 1e-7
            assert abs(b0 - b1) < 1e-7


def test_torsion_negative_control(ctx1, g1):
    rng = np.random.default_rng(4)
    p = random_curve_points(g1, rng, 1)[0]
    fake = TorsionCandidate(p, 4, (0.0,))
    with pytest.raises(NotTorsion):
        torsion_to_frame(ctx1, fake, 4)


def test_divisibility_exact_order(g1):
    # an order-8 point passes the 2N = 8 window
    a8 = cantor_alpha(g1, 8).alpha
    a4 = cantor_alpha(g1, 4).alpha
    roots = aberth_roots(a8)
    fresh = [r for r in roots if abs(polyval(a4, r)) > 1e-4]
    x8 = fresh[0]
    cand = TorsionCandidate(CurvePoint(complex(x8), complex(np.sqrt(g1.f(x8)))),
                            8, (0.0,))
    assert divisibility_check(g1, cand, 4)


def test_divisibility_rejects_collapsed_window(g1):
    # order-4 point in the 2N = 8 window collides at the identity
    cand = max((c for c in xi_set(g1, 4)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    with pytest.raises(MultiplesNotDistinct):
        divisibility_check(g1, cand, 4)
    assert divisibility_check(g1, cand, 2)


def test_divisibility_negative_control(g1):
    rng = np.random.default_rng(5)
    p = random_curve_points(g1, rng, 1)[0]
    fake = TorsionCandidate(p, 6, (0.0,))
    assert not divisibility_check(g1, fake, 3)


def test_divisibility_sees_collisions_across_a_rounding_bin(g1, monkeypatch):
    # two copies of one point 2e-13 apart in x, on either side of a 9-decimal
    # rounding boundary: they collide however the coordinates round
    import sigmatoda.addition as addition_mod

    def copy(x):
        return CurvePoint(complex(x), complex(np.sqrt(g1.f(x))))

    first, second = copy(2.0000000005 - 1e-13), copy(2.0000000005 + 1e-13)
    assert round(first.x.real, 9) != round(second.x.real, 9)
    monkeypatch.setattr(addition_mod, "point_multiples",
                        lambda curve, p, count: [[first], [second]])
    with pytest.raises(MultiplesNotDistinct, match="collide at ell = 2"):
        divisibility_check(g1, TorsionCandidate(first, 2, (0.0,)), 1)


def test_psi5_reference_tabulation_discrepancy(g1):
    """A reference tabulation of psi_5 for this curve lists degree 14.

    The classical degree is (25 - 1) / 2 = 12; both computation paths agree
    with each other and with degree 12, so the tabulated form is recorded
    as a discrepancy rather than asserted.
    """
    tabulated = np.array([1, 0, 50, 0, -61, -64, -52, 320, -233, 320, 2, -64,
                          -187, 0, 32], dtype=complex)
    mine = cantor_alpha(g1, 5).alpha
    oracle = elliptic_psi_oracle(g1, 5)
    assert mine.size == oracle.size == 13  # degree 12
    ratio = mine[-1] / oracle[-1]
    assert np.max(np.abs(mine - ratio * oracle)) < 1e-9 * np.max(np.abs(mine))
    assert tabulated.size - 1 == 14  # incompatible degree, by inspection
