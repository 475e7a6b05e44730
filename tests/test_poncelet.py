import numpy as np
import pytest

from sigmatoda.curves import make_curve
from sigmatoda.division import xi_set
from sigmatoda.errors import DegenerateConicPair
from sigmatoda.poncelet import (
    cayley_closure_check,
    closure_residual,
    conic_pair,
    pair_for_torsion,
    poncelet_vertices,
    reduce_to_elliptic,
    side_tangency_max,
    vertex_toda_residual,
)
from sigmatoda.sigma import sigma_context


@pytest.fixture(scope="module")
def ctx1():
    return sigma_context(make_curve(1, [0, -1, 0]))


def real_torsion(curve, order):
    return max((c for c in xi_set(curve, order)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)


def test_reduce_to_elliptic_round_trip(ctx1):
    # a matrix built from the target coefficients reduces to the test curve
    mat = np.array([[-4, 1, -1], [1, 0, 2], [-1, 2, 0]], dtype=complex)
    pair = conic_pair(mat)
    curve = reduce_to_elliptic(pair)
    assert curve.genus == 1
    np.testing.assert_allclose(np.asarray(curve.lam, dtype=complex),
                               [0, -1, 0], atol=1e-12)


def test_conic_pair_validation():
    with pytest.raises(DegenerateConicPair):
        conic_pair(np.eye(3))  # center entry nonzero
    bad = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(DegenerateConicPair):
        conic_pair(bad)


def test_reduce_rejects_zero_cubic_coefficient():
    mat = np.array([[1, 0.5, 0], [-0.5, 0, 1], [0, 1, 1]], dtype=complex)
    with pytest.raises(DegenerateConicPair):
        reduce_to_elliptic(conic_pair(mat))


def test_cayley_criterion_finds_known_torsion(ctx1):
    pair = pair_for_torsion(ctx1, real_torsion(ctx1.curve, 3).point)
    xs3 = [c.point.x for c in cayley_closure_check(pair, 3)]
    assert min(abs(x - np.sqrt(9 + 6 * np.sqrt(3)) / 3) for x in xs3) < 1e-8
    xs4 = [c.point.x for c in cayley_closure_check(pair, 4)]
    assert min(abs(x - (1 + np.sqrt(2))) for x in xs4) < 1e-8


@pytest.mark.parametrize("order", [3, 4])
def test_polygon_closes_and_touches(ctx1, order):
    torsion = real_torsion(ctx1.curve, order)
    pair = pair_for_torsion(ctx1, torsion.point)
    for t in (0.1, 0.45, -0.2, 0.8, 1.3):
        verts, _ = poncelet_vertices(pair, torsion, order, t, ctx=ctx1)
        assert closure_residual(verts, order) < 1e-7
        assert side_tangency_max(pair, verts) < 1e-7
        for v in verts:
            assert v[1] == pytest.approx(v[0] ** 2, rel=1e-12)  # on C


def test_closure_check_empty_when_no_affine_zero_set(ctx1):
    # the order-2 polynomial part is constant, so no affine candidate exists
    pair = pair_for_torsion(ctx1, real_torsion(ctx1.curve, 3).point)
    assert cayley_closure_check(pair, 2) == []


def test_vertex_sequence_satisfies_lattice_equation(ctx1):
    torsion = real_torsion(ctx1.curve, 3)
    for n in (0, 1, 2):
        assert vertex_toda_residual(ctx1, torsion.point, n, 0.31) < 1e-6
