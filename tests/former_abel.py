"""The former Abel node kernel, kept as the reference of the array pass.

``former_to_points`` mapped one point at a time: the nearest branch point by
``argmin``, the sheet and the leg factor on Python scalars, and a reduction
modulo the lattice per image. ``former_leg`` divided every ratio
(x - e_k) / (x_P - e_k) at every node, took one root per ratio and
multiplied them with ``np.prod``. Both read the branch points, anchors and
periods of an ``_AbelEngine``. Imported by the tests; not collected (its
name does not start with test_).
"""

import cmath

import numpy as np

from sigmatoda.errors import PathThroughBranchPoint, QuadratureNonConvergence
from sigmatoda.periods import AGREE_TOL
from sigmatoda.sigma import LEG_SPLIT, _leg_nodes, _monomials


def former_reduce(pd, u) -> np.ndarray:
    """One point u modulo the lattice, by its solved and rounded coordinates."""
    c = pd.lattice_inverse() @ np.concatenate([u.real, u.imag])
    g = pd.genus
    return u - (2.0 * pd.omega1 @ np.round(c[:g]) + 2.0 * pd.omega2 @ np.round(c[g:]))


def former_leg(engine, js, xp, factor, s_hi, depth, legs=None):
    """Integrals of the g forms on legs e_j -> x_P, one division and one root per ratio.

    ``legs``, when given, collects (number of legs, depth) of every pass.
    """
    if depth > 24:
        raise QuadratureNonConvergence("Abel leg subdivision stalled")
    if legs is not None:
        legs.append((len(js), depth))
    t, w = _leg_nodes()
    width = 0.5 ** depth
    e, others = engine.chain[js], engine.others[js]
    x = e[:, None] + (xp - e)[:, None] * (s_hi[:, None] - width * t) ** 2
    q = np.prod(np.sqrt((x[..., None] - others[:, None])
                        / (xp[:, None] - others)[:, None]), axis=-1)
    integrand = (w * _monomials(x, engine.curve.genus)) / q[:, None]
    scales = (factor * width).tolist()
    v1, v2 = (np.array([c * row for c, row in zip(scales, np.sum(level, axis=-1))])
              for level in (integrand[..., :LEG_SPLIT], integrand[..., LEG_SPLIT:]))
    for i in np.flatnonzero(np.max(np.abs(v2 - v1), axis=1) > AGREE_TOL * engine.curve.scale):
        pair = [i, i]
        halves = former_leg(engine, js[pair], xp[pair], factor[pair],
                            np.array([s_hi[i], s_hi[i] - 0.5 * width]), depth + 1, legs)
        v2[i] = halves[0] + halves[1]
    return v2


def former_factor(engine, j, p) -> complex:
    """The factor (x_P - e_j) / y_P of the leg from e_j to P, on Python scalars."""
    d = p.x - engine.chain[j]
    y = cmath.sqrt(d) * cmath.sqrt(complex(np.prod(p.x - engine.others[j])))
    d_same, d_flip = abs(y - p.y), abs(y + p.y)
    if min(d_same, d_flip) > 0.25 * max(d_same, d_flip):
        raise PathThroughBranchPoint(f"y = {p.y} lies on neither sheet over x = {p.x}")
    return d / (y if d_same <= d_flip else -y)


def former_to_points(engine, points, legs=None) -> np.ndarray:
    """Images of the points, shape (K, g), found and reduced one point at a time."""
    out = np.zeros((len(points), engine.curve.genus), dtype=complex)
    found = []  # (row, j, x_P, factor) of each point reached by a leg
    for k, p in enumerate(points):
        if p.at_infinity:
            continue
        j = int(np.argmin(np.abs(p.x - engine.chain)))
        if abs(p.x - engine.chain[j]) < 1e-10 * engine.curve.scale:
            out[k] = engine.anchors[j]
        else:
            found.append((k, j, p.x, former_factor(engine, j, p)))
    if found:
        rows, js, xps, factors = zip(*found)
        sums = former_leg(engine, np.array(js), np.array(xps, dtype=complex),
                          np.array(factors, dtype=complex), np.ones(len(found)), 0, legs)
        for k, j, row in zip(rows, js, sums):
            out[k] = former_reduce(engine.periods, engine.anchors[j] + row)
    return out
