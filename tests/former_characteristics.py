"""The former search for the Riemann characteristics, kept as the reference of the closed form.

``former_characteristics`` tests all 4^g half-integer candidates on the
test points of ``sigmatoda.sigma.riemann_characteristics`` (the lattice
translates of 0 and, at genus two, the Abel images of its six seeded
divisors of g - 1 points), one stacked theta pass per candidate, and
returns the one that vanishes on all of them. Imported by the tests; not
collected (its name does not start with test_).
"""

import itertools

import numpy as np
from box_theta import theta_pass

from sigmatoda.curves import random_curve_points
from sigmatoda.errors import CharacteristicsNotFound
from sigmatoda.sigma import Characteristics, _abel_maps, reduce_mod_lattice
from sigmatoda.theta import JET, _plan


def former_characteristics(engine) -> Characteristics:
    curve, pd = engine.curve, engine.periods
    g = curve.genus
    t_matrix = pd.riemann
    radius = _plan(t_matrix, 1e-12, 0).extent
    pmat = 0.5 * np.linalg.inv(pd.omega1)
    test_z = [np.zeros(g, dtype=complex)]
    for j in range(g):
        test_z.append(pmat @ (2.0 * pd.omega2[:, j]))
        test_z.append(pmat @ (2.0 * pd.omega1[:, j] + 2.0 * pd.omega2[:, j]))
    if g > 1:
        pts = random_curve_points(curve, np.random.default_rng(12345), 6 * (g - 1))
        divisors = [pts[i:i + g - 1] for i in range(0, len(pts), g - 1)]
        test_z.extend(pmat @ reduce_mod_lattice(pd, u) for u in _abel_maps(engine, *divisors))
    test_z = np.array(test_z)
    winners = []
    for a in itertools.product((0.0, 0.5), repeat=g):
        for b in itertools.product((0.0, 0.5), repeat=g):
            val, _, _, l1 = theta_pass(JET[0], np.array(a), np.array(b), test_z,
                                       t_matrix, radius, 1e-12)
            if np.all(np.abs(val) <= 1e-5 * l1):
                winners.append(Characteristics(np.array(a), np.array(b)))
    if len(winners) != 1:
        raise CharacteristicsNotFound(
            f"{len(winners)} candidate characteristics vanish on the stratum")
    return winners[0]
