"""Riemann theta series with characteristics and its z-derivatives.

theta[a; b](z; T) = sum over n in Z^g of
    exp(2 pi i ((1/2) (n+a)^T T (n+a) + (n+a)^T (z+b))).

The sum is truncated to a box ||n - n0||_inf <= R centered on the index n0
that maximizes the Gaussian envelope, so moderate shifts of z cost nothing
in accuracy. One pass over the box builds the terms once and takes the
value, the gradient and the Hessian as moments of the terms by 2 pi i (n+a),
together with the L1 mass of the value's terms. Every component keeps its
own tail check: the outermost shell's estimate is checked against the
requested tolerance relative to that component's L1 mass.

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
    orders (2, 1), (1, 2) and (2, 2).
    """
    order = JET.index(tuple(deriv))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = z.size
    if radius is None:
        radius = suggested_radius(t_matrix, tol)
    center = np.round(-a - np.linalg.solve(t_matrix.imag, (z + b).imag))
    box, shell = _lattice(g, int(radius))
    n = box + center
    na = n + a
    quad = 0.5 * np.einsum("ki,ij,kj->k", na, t_matrix, na)
    lin = na @ (z + b)
    base = np.exp(2j * np.pi * (quad + lin))
    # prefactors are running products 1 * 2 pi i (n+a)_k * 2 pi i (n+a)_m in
    # the operand order of one sum per multi-index, so the bits match it;
    # second moments on m >= k only
    ones = np.ones(base.size, dtype=complex)
    first = [ones * (2j * np.pi * na[:, k]) for k in range(g)] if order >= 1 else []
    pairs = [(k, m) for k in range(g) for m in range(k, g)] if order >= 2 else []
    second = [first[k] * (2j * np.pi * na[:, m]) for k, m in pairs]
    if mixed is not None:
        s1, s2 = ((2j * np.pi * na) @ w for w in mixed)
        second += [s1 * s1 * s2, s1 * s2 * s2, s1 * s1 * s2 * s2]
    terms = np.array([ones, *first, *second]) * base
    sums = terms.sum(axis=1)
    mags = np.abs(terms)
    l1s = mags.sum(axis=1)
    tails = np.max(mags[:, shell], axis=1) * float(shell.size)
    for tail, l1 in zip(tails.tolist(), l1s.tolist()):
        if tail > tol * max(l1, 1e-300):
            raise TruncationInsufficient(
                f"theta tail estimate {tail:.3e} exceeds tol {tol:.1e} "
                f"(radius {radius})")
    grad = sums[1:g + 1] if order >= 1 else None
    hess = np.empty((g, g), dtype=complex) if order >= 2 else None
    for (k, m), moment in zip(pairs, sums[g + 1:]):
        hess[k, m] = hess[m, k] = moment
    if mixed is not None:
        return sums[0], grad, hess, float(l1s[0]), sums[-3:]
    return sums[0], grad, hess, float(l1s[0])


def theta_char(a, b, z, t_matrix, radius: int | None = None,
               tol: float = DEFAULT_TOL) -> complex:
    """Theta with characteristics a (quadratic slot) and b (linear slot)."""
    return _theta_sum(JET[0], a, b, z, t_matrix, radius, tol)[0]


def theta_deriv(multi_index, a, b, z, t_matrix, radius: int | None = None,
                tol: float = DEFAULT_TOL) -> complex:
    """Termwise partial derivative of theta in the z variables.

    ``multi_index`` lists 1-based coordinate labels, repetitions allowed, of
    order at most two; the empty tuple reproduces ``theta_char``.
    """
    idx = tuple(int(i) - 1 for i in multi_index)
    if any(i < 0 for i in idx):
        raise ValueError("multi_index entries are 1-based coordinate labels")
    if len(idx) > 2:
        raise NotImplementedError("theta derivatives of order > 2 not supported")
    # the jet's value, gradient or Hessian, indexed by idx
    return _theta_sum(JET[len(idx)], a, b, z, t_matrix, radius, tol)[len(idx)][idx]
