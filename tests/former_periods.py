"""The former period quadrature level, kept as the reference of the one-pass form.

``former_segment_integrals`` integrated one chain segment per call, and a
level stacked the 2g calls. Imported by the tests; not collected (its name
does not start with test_).
"""

import numpy as np

from sigmatoda.periods import _continuous_sqrt
from sigmatoda.polyutil import polyval


def former_segment_integrals(e: np.ndarray, k: int, numerators, n_nodes: int) -> np.ndarray:
    """Open-segment integrals of p(x) dx / (2 y_ref) from e_k to e_{k+1}."""
    a, b = e[k], e[k + 1]
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    theta = (np.arange(n_nodes) + 0.5) * np.pi / n_nodes
    x = mid + h * np.cos(theta)
    others = np.delete(e, [k, k + 1])
    r = np.prod(x[:, None] - others[None, :], axis=1)
    anchor_idx = n_nodes // 2
    anchor = np.sqrt(complex(np.prod(mid - others)))
    sqrt_r = _continuous_sqrt(r, anchor_idx, anchor)
    weight = np.pi / n_nodes
    return np.array([
        np.sum(polyval(p, x) / (2j * sqrt_r)) * weight for p in numerators
    ])


def former_level(e: np.ndarray, numerators, n_nodes: int) -> np.ndarray:
    """One node level: row p, column k, as ``periods._segment_integrals`` returns it."""
    return np.array([former_segment_integrals(e, k, numerators, n_nodes)
                     for k in range(e.size - 1)]).T
