"""Poncelet polygons between two conics via torsion on the reduced cubic.

The outer conic is fixed as C: x^2 = y z, parametrized by (x, x^2, 1). An
inner conic D with matrix A (center entry zero, so the infinite point of C
lies on D) reduces to the genus-one curve

    w^2 = x^3 + lam2 x^2 + lam1 x + lam0

whose coefficients are read off the quadratic form along the parametrization
of C. Vertices of an N-gon are wp values stepped by the Abel image of an
N-torsion point; sides are chords of C tangent to D. `pair_for_torsion`
constructs the inner conic whose Poncelet translation matches a given
torsion step, by solving the single chord-tangency condition left open in
the one-parameter family of matrices with a fixed reduced curve.

The vertex sequence x_n = wp(n u0 + t) is the genus-one Toda potential with
step u0 = abel(P), and it is read the way a Toda window is: one stacked
sigma 2-jet per sweep time gives every vertex its pole test and its wp
(``_sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, make_curve
from .errors import DegenerateConicPair, DegenerateCurve, ThetaDivisorPole, worst_of
from .sigma import SigmaContext, _bound, abel_map, sigma_jet2
from .toda import _lattice_residual, _potential

_D = np.ones(1, dtype=complex)  # the direction of the sweep, d1 = d2 at genus one


def _adjugate3(mat: np.ndarray) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(mat, j, axis=0), i, axis=1)
            out[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


@dataclass(frozen=True)
class ConicPair:
    """Inner conic matrix against the fixed outer conic x^2 = y z."""

    matrix: np.ndarray

    @property
    def symmetric(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.matrix.T)

    @property
    def adjugate(self) -> np.ndarray:
        return _adjugate3(self.symmetric)


def conic_pair(matrix) -> ConicPair:
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (3, 3):
        raise DegenerateConicPair("conic matrix must be 3 x 3")
    if mat[1, 1] != 0:
        raise DegenerateConicPair("center entry of the conic matrix must be zero")
    if abs(np.linalg.det(0.5 * (mat + mat.T))) < 1e-12:
        raise DegenerateConicPair("inner conic is singular")
    return ConicPair(mat)


def reduce_to_elliptic(pair: ConicPair) -> HyperellipticCurve:
    """Genus-one curve of the incidence correspondence.

    With the center entry zero the quadratic form along (x, x^2, 1) is a
    cubic, so the monic model needs no substitution: the curve's x is the
    conic parameter.
    """
    a = pair.matrix
    lead = a[0, 1] + a[1, 0]
    if abs(lead) < 1e-14:
        raise DegenerateConicPair("vanishing cubic coefficient a2 + a4")
    lam2 = (a[0, 0] + a[1, 2] + a[2, 1]) / lead
    lam1 = (a[0, 2] + a[2, 0]) / lead
    lam0 = a[2, 2] / lead
    try:
        return make_curve(1, [lam0, lam1, lam2])
    except DegenerateCurve as exc:
        raise DegenerateConicPair("reduced cubic has repeated roots") from exc


def chord_line(xa: complex, xb: complex) -> np.ndarray:
    """Projective line through the conic points with parameters xa, xb."""
    return np.array([-(xa + xb), 1.0, xa * xb], dtype=complex)


def tangency_residual(pair: ConicPair, line: np.ndarray) -> float:
    adj = pair.adjugate
    return float(abs(line @ adj @ line)
                 / (np.linalg.norm(line) ** 2 * np.linalg.norm(adj)))


def pair_for_torsion(ctx: SigmaContext, point: CurvePoint) -> ConicPair:
    """Inner conic whose Poncelet translation is the Abel image of ``point``.

    The family with reduced curve equal to ctx.curve has one free parameter;
    the tangency of a single chord stepped by the torsion point fixes it (a
    quadratic; the verified root is returned).
    """
    if ctx.genus != 1:
        raise DegenerateConicPair("conic construction is genus-one only")
    lam2, lam1, lam0 = ctx.curve.lam_at(2), ctx.curve.lam_at(1), ctx.curve.lam_at(0)

    def family(a):
        return np.array([[2 * lam2 - 2 * a, 1.0, lam1],
                         [1.0, 0.0, a],
                         [lam1, a, 2 * lam0]], dtype=complex)

    u0 = abel_map(ctx, [point]).u
    t0 = 0.21  # sweep parameter of the chord whose tangency is imposed
    line = chord_line(*_vertex_wps(ctx, _sweep(ctx, u0, range(2), t0)))
    nodes = np.array([0.3, 1.1, 2.3])
    vals = np.array([line @ _adjugate3(family(a)) @ line for a in nodes])
    roots = np.roots(np.polyfit(nodes, vals, 2))
    # the chords of two further sweeps check each root
    checks = [_vertex_wps(ctx, _sweep(ctx, u0, range(3), t_check))
              for t_check in (t0 + 0.17, t0 - 0.29)]
    best = None
    for a_sol in roots:
        candidate = ConicPair(family(a_sol))
        if abs(np.linalg.det(candidate.symmetric)) < 1e-10:
            continue
        worst = worst_of(*(tangency_residual(candidate, chord_line(xs[n], xs[n + 1]))
                           for xs in checks for n in range(2)))
        if worst < 1e-8 and (best is None or worst < best[0]):
            best = (worst, candidate)
    if best is None:
        raise DegenerateConicPair("no conic in the family closes the chords")
    return best[1]


def matching_candidate(pair: ConicPair, candidates, ctx: SigmaContext):
    """The torsion candidate whose polygon is tangent to this inner conic.

    Distinct torsion orbits of the same order inscribe in different conics;
    only the orbit realizing the pair's own chord correspondence passes the
    side-tangency test.
    """
    for cand in candidates:
        verts, _ = poncelet_vertices(ctx, cand.point, cand.order_target, 0.17)
        if side_tangency_max(pair, verts) < 1e-6:
            return cand
    return None


def _sweep(ctx: SigmaContext, u0: np.ndarray, sites, t: complex) -> list:
    """The ``sigma_jet2`` records at n u0 + t for n in ``sites``: one stacked pass."""
    return sigma_jet2(ctx, np.array([n * u0 + t for n in sites]), _D, _D)


def _vertex_wps(ctx: SigmaContext, jets) -> list:
    """wp at each point of a ``_sweep``: its Toda potential (``toda._potential``)."""
    curvature = _bound(ctx, 4, _D, _D).curvature
    return [_potential(jet, curvature, f"vertex {n}") for n, jet in enumerate(jets)]


def poncelet_vertices(ctx: SigmaContext, point: CurvePoint, n_sides: int, t: complex):
    """Vertices (x_n, x_n^2, 1) of the polygon at sweep parameter t.

    x_n is the wp value at n steps of the Abel image of the torsion point.
    When a vertex passes near a pole (|sigma| below 1e-2 of its scale) the
    sweep parameter is shifted by 0.1137 and the value used is reported
    back. Each try takes one stacked theta pass for all vertices.
    """
    u0 = abel_map(ctx, [point]).u
    t_used = complex(t)
    # keep well away from vertex poles; closure conditioning degrades there
    for _ in range(6):
        jets = _sweep(ctx, u0, range(n_sides + 1), t_used)
        if all(abs(jet[0]) >= 1e-2 * jet[4] for jet in jets):
            break
        t_used += 0.1137
    else:
        raise ThetaDivisorPole("could not move the sweep off the poles")
    verts = [np.array([x, x * x, 1.0], dtype=complex) for x in _vertex_wps(ctx, jets)]
    return verts, t_used


def closure_residual(vertices, n_sides: int) -> float:
    """Mismatch between vertex n_sides and vertex 0 in the affine chart."""
    return float(abs(vertices[n_sides][0] - vertices[0][0])
                 / max(1.0, abs(vertices[0][0])))


def side_tangency_max(pair: ConicPair, vertices) -> float:
    worst = 0.0
    for va, vb in zip(vertices[:-1], vertices[1:]):
        worst = worst_of(worst, tangency_residual(pair, chord_line(va[0], vb[0])))
    return worst


def vertex_toda_residual(ctx: SigmaContext, point: CurvePoint, n: int,
                         t: complex) -> float:
    """Second-difference lattice equation along the vertex sequence.

    Matches the one-time lattice identity with step equal to the Abel image
    of the polygon's torsion point and constant x_c = wp(abel P) = P.x; the
    left side -(d/dt)^2 log(x_n - x_c) is exact. The vertices n-1..n+1 take
    one stacked pass, read as a Toda window (``toda._lattice_residual``).
    """
    u0 = abel_map(ctx, [point]).u
    return _lattice_residual(_sweep(ctx, u0, range(n - 1, n + 2), t),
                             _bound(ctx, 4, _D, _D).curvature, point.x, n)
