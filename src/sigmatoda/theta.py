"""Riemann theta series with characteristics and its z-derivatives.

theta[a; b](z; T) = sum over n in Z^g of
    exp(2 pi i ((1/2) (n+a)^T T (n+a) + (n+a)^T (z+b))).

The sum is truncated to a box ||n - n0||_inf <= R centered on the index n0
that maximizes the Gaussian envelope, so moderate shifts of z cost nothing
in accuracy. One pass over the box builds the terms once and takes the
value, the gradient and the Hessian as moments of the terms by 2 pi i (n+a),
together with the L1 mass of the value's terms. Every component keeps its
own tail check: the outermost shell's estimate is checked against the
requested tolerance relative to that component's L1 mass. A stack of points
shares one pass, each point with its own checks and the bits of its own call.

Given two z-directions w1 and w2, the same pass also sums the mixed moments
of orders (2, 1), (1, 2) and (2, 2) along them, with s_i = 2 pi i (n+a).w_i:
the terms by s1^2 s2, s1 s2^2 and s1^2 s2^2. With the gradient and Hessian
they give every derivative D1^i D2^j theta with i, j <= 2, each with its
own tail check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TruncationInsufficient

DEFAULT_TOL = 1e-12
# derivative orders a jet of order 0, 1 or 2 takes beside the value
JET = ((), (1,), (1, 2))


@lru_cache(maxsize=64)
def _lattice(genus: int, radius: int):
    """Box ||n||_inf <= radius and its shell's indices; shared, so read-only."""
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * genus), indexing="ij")
    box = np.stack([grid.ravel() for grid in grids], axis=1)
    shell = np.flatnonzero(np.max(np.abs(box), axis=1) >= radius)
    box.flags.writeable = shell.flags.writeable = False
    return box, shell


def suggested_radius(t_matrix, tol: float = DEFAULT_TOL) -> int:
    """Truncation radius from the Gaussian tail bound of the series."""
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    lam_min = float(np.min(np.linalg.eigvalsh(t_matrix.imag)))
    if lam_min <= 0:
        raise ValueError("Im T must be positive definite")
    return int(np.ceil(np.sqrt(-np.log(tol) / (np.pi * lam_min)))) + 2


def _theta_sum(deriv, a, b, z, t_matrix, radius, tol, mixed=None):
    """(value, grad, hess, l1) of theta[a; b] at z from one lattice pass.

    ``deriv`` is ``JET[order]`` for order 0, 1 or 2; grad and hess are None
    above that order. l1 is the L1 mass of the value's terms. With
    ``mixed = (w1, w2)``, a fifth entry holds the moments along them of
    orders (2, 1), (1, 2) and (2, 2). A stack z of shape (K, g) adds a leading
    axis of size K to every entry.
    """
    order = JET.index(tuple(deriv))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = t_matrix.shape[0]
    zb = (z + b).reshape(-1, g)
    if radius is None:
        radius = suggested_radius(t_matrix, tol)
    center = np.round(-a - np.linalg.solve(t_matrix.imag, zb.imag.T).T)
    box, shell = _lattice(g, int(radius))
    na = box + center[:, None, :] + a
    flat = na.reshape(-1, g)
    quad = 0.5 * np.einsum("ki,ij,kj->k", flat, t_matrix, flat).reshape(len(zb), -1)
    lin = np.matmul(na, zb[:, :, None])[..., 0]
    base = np.exp(2j * np.pi * (quad + lin))
    # rows 1, s_k, s_k s_m (m >= k) and the mixed moments, s = 2 pi i (n+a);
    # each product in the operand order of one sum per multi-index, bit for bit
    s = 2j * np.pi * na if order or mixed is not None else None
    pairs = [(k, m) for k in range(g) for m in range(k, g)] if order >= 2 else []
    terms = np.empty((len(zb), 1 + g * (order >= 1) + len(pairs) + 3 * (mixed is not None),
                      box.shape[0]), dtype=complex)
    terms[:, 0] = 1.0
    if order >= 1:
        terms[:, 1:g + 1] = s.transpose(0, 2, 1)
    for j, (k, m) in enumerate(pairs, start=g + 1):
        np.multiply(terms[:, 1 + k], s[..., m], out=terms[:, j])
    if mixed is not None:
        s1, s2 = (s @ w for w in mixed)
        terms[:, -3:] = np.stack([s1 * s1 * s2, s1 * s2 * s2, s1 * s1 * s2 * s2], axis=1)
    terms *= base[:, None, :]
    sums = terms.sum(axis=2)
    mags = np.abs(terms)
    l1s = mags.sum(axis=2)
    tails = mags.take(shell, axis=2).max(axis=2) * float(shell.size)
    for tail, l1 in zip(tails.ravel().tolist(), l1s.ravel().tolist()):
        if tail > tol * max(l1, 1e-300):
            raise TruncationInsufficient(
                f"theta tail estimate {tail:.3e} exceeds tol {tol:.1e} "
                f"(radius {radius})")
    hess = np.empty((len(zb), g, g), dtype=complex) if order >= 2 else None
    for j, (k, m) in enumerate(pairs, start=g + 1):
        hess[:, k, m] = hess[:, m, k] = sums[:, j]
    out = [sums[:, 0], sums[:, 1:g + 1] if order >= 1 else None, hess, l1s[:, 0]]
    out += [sums[:, -3:]] if mixed is not None else []
    if z.ndim == 1:  # one point: drop the stack axis
        out = [None if x is None else x[0] for x in out]
        out[3] = float(out[3])
    return tuple(out)


def theta_char(a, b, z, t_matrix, radius: int | None = None,
               tol: float = DEFAULT_TOL) -> complex:
    """Theta with characteristics a (quadratic slot) and b (linear slot)."""
    return _theta_sum(JET[0], a, b, z, t_matrix, radius, tol)[0]

