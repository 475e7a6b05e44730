"""The former box theta kernel, kept as the reference of the ellipsoid plans.

Also a theta pass with all its arguments in one call, (deriv, a, b, z, T,
radius, tol, along), on the plan kernel (``theta_pass``), and the box kernel
in the place of the plan kernel (``box_pass``). Imported by the tests; not
collected (its name does not start with test_).
"""

import importlib

import numpy as np

from sigmatoda.errors import TruncationInsufficient
from sigmatoda.theta import JET, bind


def theta_pass(deriv, a, b, z, t_matrix, radius, tol, along=None):
    """One pass of the kernel that ``sigmatoda.sigma`` holds at the call, bound for it alone.

    Returns (value, grad, hess, l1), the partials at genus <= 2 read off one
    pass along the unit vectors (e_1, e_g) with rows to the order of
    ``deriv``; with ``along``, (value, sums, None, l1) of a pass along those
    directions, its rows to order 4 at order 2. The characteristic and the
    directions are bound by ``theta.bind``, so a kernel patched into
    ``sigmatoda.sigma`` serves the caller too.
    """
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g, order = len(t_matrix), len(deriv)
    units = np.eye(g, dtype=complex)
    top = order if along is None else (0, 1, 4)[order]
    tp = bind(t_matrix, tol, top, a, b, (units[0], units[-1]) if along is None else along)
    kernel = importlib.import_module("sigmatoda.sigma")._theta_sum
    value, sums, l1 = kernel(deriv, np.asarray(z, dtype=complex), t_matrix, radius, tol, tp)
    if along is not None:
        return value, sums, None, l1
    if order and g > 2:
        raise NotImplementedError("partials of theta read at genus <= 2")
    grad = None if sums is None else sums[..., :g]  # (1, 0), (0, 1)
    hess = sums[..., np.array([[2, 3], [3, 4]])[:g, :g]] if order == 2 else None
    return value, grad, hess, l1


def box_pass(deriv, z, t_matrix, radius, tol, tp):
    """``box_theta_sum`` at radius 12 in the place of ``theta._theta_sum``.

    The characteristic and the directions are those of the bound pass tp:
    the gradient and Hessian are contracted with its directions, and its
    rows of orders 3 and 4 are the box kernel's mixed rows, in the plan
    kernel's order of sums.
    """
    order, top = len(deriv), max(i + j for i, j in tp.exps)
    along = tp.along * (3 - len(tp.along))
    value, grad, hess, l1, *mixed = box_theta_sum(deriv, tp.a, tp.b, z, t_matrix, 12, tol,
                                                  along if top == 4 else None)
    if not order:
        return value, None, l1
    sums = [grad @ np.stack(along, axis=-1)]
    if top >= 2:
        sums.append(np.stack([np.einsum("...i,...ij,...j->...", wa, hess, wb)
                              for wa, wb in ((along[0], along[0]), (along[0], along[1]),
                                             (along[1], along[1]))], axis=-1))
    return value, np.concatenate(sums + mixed, axis=-1), l1


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
