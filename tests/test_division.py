from math import comb

import numpy as np
import pytest
from former_division import former_poly_det

from sigmatoda.curves import (
    CurvePoint,
    make_curve,
    phi_monomial,
    phi_series,
    random_curve_points,
    y_jet,
)
import sigmatoda.division as division_mod
from sigmatoda.division import (
    TorsionCandidate,
    alpha_degree,
    cantor_alpha,
    cantor_psi,
    elliptic_psi_oracle,
    kiepert_psi,
    phi_roots,
    torsion_distance,
    torsion_to_frame,
    xi_set,
    y_exponent,
)
from sigmatoda.errors import BranchPointSingularity, DegreeMismatch, NotTorsion
from sigmatoda.polyutil import polyval
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


def test_psi_oracle_has_the_closed_form_degree_and_leading_coefficient(g1):
    # the recurrence oracle on y^2 = x^3 - x: degree (n^2 - 1)/2 for odd n
    # and (n^2 - 4)/2 for even n, leading coefficient n, and the degree of
    # cantor_alpha; a relative trim read 68, 78 and 86 at n = 12, 13 and 14
    for n in range(2, 16):
        oracle = elliptic_psi_oracle(g1, n)
        degree = (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2
        assert oracle.size - 1 == degree == cantor_alpha(g1, n).degree
        assert oracle[-1] == n


def test_alpha_degree_formula(g1, g2):
    for curve in (g1, g2):
        g = curve.genus
        for n in range(g + 2, 9):
            assert cantor_alpha(curve, n).degree == alpha_degree(g, n)


@pytest.mark.parametrize("genus, n, degree, lead", [
    (1, 12, 70, -6), (1, 13, 84, -13), (1, 14, 96, -7), (1, 15, 112, -15),
    (1, 16, 126, 8), (2, 9, 72, 30), (2, 10, 96, 165), (2, 11, 112, 55),
])
def test_cantor_alpha_keeps_leading_coefficients_below_the_trim_cut(
        g1, g2, genus, n, degree, lead):
    # the true leading coefficient is below 1e-12 max|alpha|, where a
    # relative trim would drop it and report a degree mismatch
    alpha = cantor_alpha(g1 if genus == 1 else g2, n).alpha
    assert alpha.size - 1 == degree == alpha_degree(genus, n)
    assert alpha[-1] == lead
    assert abs(lead) < 1e-12 * np.max(np.abs(alpha))


def test_cantor_alpha_rejects_a_degree_it_does_not_have(g1, monkeypatch):
    import sigmatoda.division as division_mod

    # alpha_3 = 3x^4 - 6x^2 - 1 on y^2 = x^3 - x
    assert cantor_alpha(g1, 3).alpha.tolist() == [-1, 0, -6, 0, 3]
    for wrong in (3, 5):  # drops the leading 3, or asks past the end
        monkeypatch.setattr(division_mod, "alpha_degree", lambda g, n: wrong)
        with pytest.raises(DegreeMismatch):
            cantor_alpha(g1, 3)


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


def test_xi_set_drops_a_candidate_with_a_nan_window_residual(g2, monkeypatch):
    # genus 2, order 5: six candidates, each with the window alpha_4..alpha_6
    assert len(xi_set(g2, 5)) == 6
    real, middle = division_mod._alpha_rel_residual, cantor_alpha(g2, 5).alpha

    def residual(alpha, x):
        return float("nan") if np.array_equal(alpha, middle) else real(alpha, x)

    monkeypatch.setattr(division_mod, "_alpha_rel_residual", residual)
    assert xi_set(g2, 5) == []  # max(1e-9, nan, 1e-9) is 1e-9 and kept all six


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


def test_torsion_distance_is_the_certificate_of_the_frames(ctx1, g1):
    # the lattice distance of N c, c = 2 A(P), in the bits of that expression
    for order in (3, 4):
        for cand in xi_set(g1, order):
            dist = torsion_distance(ctx1, cand.point, order)
            c = 2.0 * abel_map(ctx1, [cand.point]).u
            assert dist == lattice_distance(ctx1.periods, order * c)
            assert dist < division_mod.TORSION_TOL
    p = random_curve_points(g1, np.random.default_rng(5), 1)[0]
    assert torsion_distance(ctx1, p, 4) > 1e-3


def test_poly_det_keeps_the_bits_of_the_cofactor_expansion(g1, g2, monkeypatch):
    for curve in (g1, g2):
        for n in range(1, 13):
            mine = cantor_alpha(curve, n).alpha
            monkeypatch.setattr(division_mod, "_poly_det", former_poly_det)
            former = cantor_alpha(curve, n).alpha
            monkeypatch.undo()
            assert mine.tobytes() == former.tobytes()


def test_poly_det_computes_each_minor_once(g1, monkeypatch):
    # genus 1, n = 19: a 9 x 9 Toeplitz determinant, 9! products by cofactors
    calls = []
    polymul = division_mod.polymul

    def counted(a, b):
        calls.append(1)
        return polymul(a, b)

    monkeypatch.setattr(division_mod, "polymul", counted)
    assert cantor_alpha(g1, 19).degree == alpha_degree(1, 19)
    size = division_mod._toeplitz_shape(1, 19)[1]
    assert size == 9 and len(calls) <= size * 2 ** size


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
