"""The former box theta kernel, kept as the reference of the ellipsoid plans.

Imported by the tests; not collected (its name does not start with test_).
"""

import numpy as np

from sigmatoda.errors import TruncationInsufficient
from sigmatoda.theta import JET


def box_theta_sum(deriv, a, b, z, t_matrix, radius, tol, mixed=None):
    """The former kernel, kept as the reference: the box ||n - n0||_inf <= radius.

    Its tail check is the outermost shell's largest term times the shell's
    size, per row, against tol times the row's L1 mass.
    """
    order = JET.index(tuple(deriv))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = t_matrix.shape[0]
    zb = (z + b).reshape(-1, g)
    center = np.round(-a - np.linalg.solve(t_matrix.imag, zb.imag.T).T)
    axis = np.arange(-radius, radius + 1)
    box = np.stack([grid.ravel() for grid in np.meshgrid(*([axis] * g), indexing="ij")],
                   axis=1)
    shell = np.flatnonzero(np.max(np.abs(box), axis=1) >= radius)
    na = box + center[:, None, :] + a
    flat = na.reshape(-1, g)
    quad = 0.5 * np.einsum("ki,ij,kj->k", flat, t_matrix, flat).reshape(len(zb), -1)
    lin = np.matmul(na, zb[:, :, None])[..., 0]
    base = np.exp(2j * np.pi * (quad + lin))
    s = 2j * np.pi * na
    pairs = [(k, m) for k in range(g) for m in range(k, g)] if order >= 2 else []
    rows = [np.ones_like(base)] + [s[..., k] for k in range(g) if order >= 1]
    rows += [s[..., k] * s[..., m] for k, m in pairs]
    if mixed is not None:
        s1, s2 = (s @ w for w in mixed)
        rows += [s1 * s1 * s2, s1 * s2 * s2, s1 * s1 * s2 * s2]
    terms = np.stack(rows, axis=1) * base[:, None, :]
    sums, mags = terms.sum(axis=2), np.abs(terms)
    l1s = mags.sum(axis=2)
    tails = mags[:, :, shell].max(axis=2) * float(shell.size)
    if np.any(tails > tol * np.maximum(l1s, 1e-300)):
        raise TruncationInsufficient("reference tail")
    hess = np.empty((len(zb), g, g), dtype=complex) if order >= 2 else None
    for j, (k, m) in enumerate(pairs, start=g + 1):
        hess[:, k, m] = hess[:, m, k] = sums[:, j]
    out = [sums[:, 0], sums[:, 1:g + 1] if order >= 1 else None, hess, l1s[:, 0]]
    out += [sums[:, -3:]] if mixed is not None else []
    if z.ndim == 1:
        out = [None if x is None else x[0] for x in out]
    return tuple(out)
