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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, make_curve
from .errors import DegenerateConicPair, DegenerateCurve, ThetaDivisorPole
from .sigma import SigmaContext, abel_map, sigma_with_scale, wp
from .toda import lattice_lhs


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
    xa = wp(ctx, 1, 1, [t0])
    xb = wp(ctx, 1, 1, u0 + t0)
    line = chord_line(xa, xb)
    nodes = np.array([0.3, 1.1, 2.3])
    vals = np.array([line @ _adjugate3(family(a)) @ line for a in nodes])
    roots = np.roots(np.polyfit(nodes, vals, 2))
    best = None
    for a_sol in roots:
        candidate = ConicPair(family(a_sol))
        if abs(np.linalg.det(candidate.symmetric)) < 1e-10:
            continue
        worst = 0.0
        for t_check in (t0 + 0.17, t0 - 0.29):
            xs = [wp(ctx, 1, 1, n * u0 + t_check) for n in range(3)]
            for n in range(2):
                worst = max(worst, tangency_residual(
                    candidate, chord_line(xs[n], xs[n + 1])))
        if worst < 1e-8 and (best is None or worst < best[0]):
            best = (worst, candidate)
    if best is None:
        raise DegenerateConicPair("no conic in the family closes the chords")
    return best[1]


def cayley_closure_check(pair: ConicPair, order: int):
    """Torsion candidates of the reduced curve certifying an N-gon closure."""
    from .division import xi_set

    return xi_set(reduce_to_elliptic(pair), order)


def matching_candidate(pair: ConicPair, candidates, ctx: SigmaContext):
    """The torsion candidate whose polygon is tangent to this inner conic.

    Distinct torsion orbits of the same order inscribe in different conics;
    only the orbit realizing the pair's own chord correspondence passes the
    side-tangency test.
    """
    for cand in candidates:
        verts, _ = poncelet_vertices(pair, cand, cand.order_target, 0.17, ctx=ctx)
        if side_tangency_max(pair, verts) < 1e-6:
            return cand
    return None


def poncelet_vertices(pair: ConicPair, torsion, n_sides: int, t: complex,
                      ctx: SigmaContext):
    """Vertices (x_n, x_n^2, 1) of the polygon at sweep parameter t.

    x_n is the wp value at n steps of the torsion Abel image. When a vertex
    passes through the pole the sweep parameter is shifted deterministically
    and the value used is reported back.
    """
    point = torsion.point if hasattr(torsion, "point") else torsion
    u0 = abel_map(ctx, [point]).u
    t_used = complex(t)
    # keep well away from vertex poles; closure conditioning degrades there
    for _ in range(6):
        ok = True
        for n in range(n_sides + 1):
            val, scale = sigma_with_scale(ctx, n * u0 + t_used)
            if abs(val) < 1e-2 * scale:
                ok = False
                break
        if ok:
            break
        t_used += 0.1137
    else:
        raise ThetaDivisorPole("could not move the sweep off the poles")
    xs = [wp(ctx, 1, 1, n * u0 + t_used) for n in range(n_sides + 1)]
    verts = [np.array([x, x * x, 1.0], dtype=complex) for x in xs]
    return verts, t_used


def closure_residual(vertices, n_sides: int) -> float:
    """Mismatch between vertex n_sides and vertex 0 in the affine chart."""
    return float(abs(vertices[n_sides][0] - vertices[0][0])
                 / max(1.0, abs(vertices[0][0])))


def side_tangency_max(pair: ConicPair, vertices) -> float:
    worst = 0.0
    for va, vb in zip(vertices[:-1], vertices[1:]):
        worst = max(worst, tangency_residual(pair, chord_line(va[0], vb[0])))
    return worst


def vertex_toda_residual(ctx: SigmaContext, point: CurvePoint, n: int,
                         t: complex) -> float:
    """Second-difference lattice equation along the vertex sequence.

    Matches the one-time lattice identity with step equal to the Abel image
    of the polygon's torsion point and constant wp at that image.
    """
    u0 = abel_map(ctx, [point]).u
    x_c = wp(ctx, 1, 1, u0)

    def gap(k, s):
        return wp(ctx, 1, 1, k * u0 + t + s) - x_c

    lhs = lattice_lhs(lambda h: gap(n, h) * gap(n, -h), gap(n, 0.0), 1e-3)
    rhs = gap(n + 1, 0.0) - 2.0 * gap(n, 0.0) + gap(n - 1, 0.0)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
