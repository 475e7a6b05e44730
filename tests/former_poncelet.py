"""The former per-vertex Poncelet path, kept as the reference of the stacked sweep.

Each vertex took its own sigma pass for the pole test and its own ``wp``
pass for its value, ``pair_for_torsion`` recomputed its check chords once per
root, and the vertex residual read x_c = wp(u0) and the exact left side of
one ``sigma_jet2`` record at vertex n. Imported by the tests; not collected
(its name does not start with test_).
"""

import numpy as np

from sigmatoda.errors import DegenerateConicPair, ThetaDivisorPole
from sigmatoda.poncelet import ConicPair, _adjugate3, chord_line, tangency_residual
from sigmatoda.sigma import (
    _bound,
    _guarded,
    _log_gap,
    abel_map,
    sigma_jet2,
    sigma_with_scale,
    wp,
)


def former_pair_for_torsion(ctx, point) -> ConicPair:
    """The inner conic of the one-parameter family, one wp pass per chord end."""
    lam2, lam1, lam0 = ctx.curve.lam_at(2), ctx.curve.lam_at(1), ctx.curve.lam_at(0)

    def family(a):
        return np.array([[2 * lam2 - 2 * a, 1.0, lam1],
                         [1.0, 0.0, a],
                         [lam1, a, 2 * lam0]], dtype=complex)

    u0 = abel_map(ctx, [point]).u
    t0 = 0.21
    line = chord_line(wp(ctx, 1, 1, [t0]), wp(ctx, 1, 1, u0 + t0))
    nodes = np.array([0.3, 1.1, 2.3])
    vals = np.array([line @ _adjugate3(family(a)) @ line for a in nodes])
    best = None
    for a_sol in np.roots(np.polyfit(nodes, vals, 2)):
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


def former_poncelet_vertices(ctx, point, n_sides: int, t: complex):
    """(vertices, t_used): a sigma pole test and a wp pass per vertex."""
    u0 = abel_map(ctx, [point]).u
    t_used = complex(t)
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
    return [np.array([x, x * x, 1.0], dtype=complex) for x in xs], t_used


def former_vertex_toda_residual(ctx, point, n: int, t: complex) -> float:
    """The lattice residual with x_c = wp(u0) and a pass per vertex."""
    u0 = abel_map(ctx, [point]).u
    x_c = wp(ctx, 1, 1, u0)
    d = np.ones(1, dtype=complex)
    sig, *_, scale, moments = sigma_jet2(ctx, n * u0 + t, d, d)
    _guarded(sig, scale, n)
    x_n, lhs = _log_gap(_bound(ctx, 4, d, d).curvature, moments, x_c, n)
    rhs = wp(ctx, 1, 1, (n + 1) * u0 + t) - 2.0 * x_n + wp(ctx, 1, 1, (n - 1) * u0 + t)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
