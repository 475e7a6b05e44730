import importlib

import numpy as np
import pytest
from former_poncelet import (
    former_pair_for_torsion,
    former_poncelet_vertices,
    former_vertex_toda_residual,
)

from sigmatoda import verify
from sigmatoda.curves import make_curve
from sigmatoda.division import xi_set
from sigmatoda.errors import DegenerateConicPair
from sigmatoda.poncelet import (
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
    xs3 = [c.point.x for c in xi_set(reduce_to_elliptic(pair), 3)]
    assert min(abs(x - np.sqrt(9 + 6 * np.sqrt(3)) / 3) for x in xs3) < 1e-8
    xs4 = [c.point.x for c in xi_set(reduce_to_elliptic(pair), 4)]
    assert min(abs(x - (1 + np.sqrt(2))) for x in xs4) < 1e-8


@pytest.mark.parametrize("order", [3, 4])
def test_polygon_closes_and_touches(ctx1, order):
    torsion = real_torsion(ctx1.curve, order)
    pair = pair_for_torsion(ctx1, torsion.point)
    for t in (0.1, 0.45, -0.2, 0.8, 1.3):
        verts, _ = poncelet_vertices(ctx1, torsion.point, order, t)
        assert closure_residual(verts, order) < 1e-7
        assert side_tangency_max(pair, verts) < 1e-7
        for v in verts:
            assert v[1] == pytest.approx(v[0] ** 2, rel=1e-12)  # on C


def test_closure_check_empty_when_no_affine_zero_set(ctx1):
    # the order-2 polynomial part is constant, so no affine candidate exists
    pair = pair_for_torsion(ctx1, real_torsion(ctx1.curve, 3).point)
    assert xi_set(reduce_to_elliptic(pair), 2) == []


def test_vertex_sequence_satisfies_lattice_equation(ctx1):
    torsion = real_torsion(ctx1.curve, 3)
    for n in (0, 1, 2):
        assert vertex_toda_residual(ctx1, torsion.point, n, 0.31) < 1e-6


SWEEPS = (0.0, 0.1, 0.45, -0.2, 0.8, 1.3, 0.31)


@pytest.mark.parametrize("order", [3, 4])
def test_stacked_sweep_matches_the_former_per_vertex_path(ctx1, order):
    # t = 0 puts vertex 0 on the pole of sigma at the origin, so the sweep
    # is shifted once, to 0.1137, on both paths
    point = real_torsion(ctx1.curve, order).point
    pair = pair_for_torsion(ctx1, point)
    ref = former_pair_for_torsion(ctx1, point)
    scale = max(1.0, np.max(np.abs(ref.matrix)))
    assert np.max(np.abs(pair.matrix - ref.matrix)) <= 1e-12 * scale
    for t in SWEEPS:
        verts, t_used = poncelet_vertices(ctx1, point, order, t)
        ref_verts, ref_t = former_poncelet_vertices(ctx1, point, order, t)
        assert t_used == ref_t
        assert len(verts) == len(ref_verts) == order + 1
        for v, w in zip(verts, ref_verts):
            assert abs(v[0] - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    for n in range(-1, 4):
        res = vertex_toda_residual(ctx1, point, n, 0.31)
        assert res < 1e-13
        assert former_vertex_toda_residual(ctx1, point, n, 0.31) < 1e-13


def test_shifted_sweep_reads_the_vertices_of_the_t_used(ctx1):
    point = real_torsion(ctx1.curve, 3).point
    verts, t_used = poncelet_vertices(ctx1, point, 3, 0.0)
    assert t_used == 0.1137
    again, t_again = poncelet_vertices(ctx1, point, 3, t_used)
    assert t_again == t_used
    assert all(np.array_equal(v, w) for v, w in zip(verts, again))


def test_poncelet_passes_are_one_stacked_sweep_each(ctx1, monkeypatch):
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return kernel(*args, **kwargs)

    point = real_torsion(ctx1.curve, 3).point
    with monkeypatch.context() as patch:
        patch.setattr(sigma_mod, "_theta_sum", counted)
        pair_for_torsion(ctx1, point)
        assert calls == [(2, 1), (3, 1), (3, 1)]
        calls.clear()
        poncelet_vertices(ctx1, point, 3, 0.1)
        assert calls == [(4, 1)]
        calls.clear()
        poncelet_vertices(ctx1, point, 3, 0.0)  # one shift: two tries
        assert calls == [(4, 1), (4, 1)]
        calls.clear()
        vertex_toda_residual(ctx1, point, 1, 0.31)
        assert calls == [(3, 1)]
        calls.clear()
        result = verify.criterion_poncelet(ctx1)
    # criterion 7, per order: 3 passes for the pair, and per t one for the
    # sweep, none shifted, and one for the vertex Toda residual
    assert len(calls) == 26
    assert result.passed
