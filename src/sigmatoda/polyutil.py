"""Polynomial helpers and a simultaneous (Aberth) root finder.

Polynomials are numpy arrays of complex coefficients in ascending degree
order. All routines tolerate trailing near-zero coefficients; ``trim``
removes them relative to the largest coefficient.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindFailure

ABERTH_MAX_ITER = 200
ABERTH_RTOL = 1e-13


def as_poly(coeffs) -> np.ndarray:
    return np.atleast_1d(np.asarray(coeffs, dtype=complex))


def trim(coeffs, rel_tol: float = 1e-12) -> np.ndarray:
    """Drop trailing coefficients smaller than rel_tol * max|coeff|."""
    c = as_poly(coeffs)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return c[:1] * 0.0
    keep = np.nonzero(np.abs(c) > rel_tol * scale)[0]
    if keep.size == 0:
        return c[:1] * 0.0
    return c[: keep[-1] + 1]


def polyval(coeffs, x):
    """Evaluate an ascending-order polynomial (Horner)."""
    c = as_poly(coeffs)
    x = np.asarray(x, dtype=complex)
    out = np.full_like(x, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        out = out * x + ck
    return out if out.ndim else complex(out)

def polyder(coeffs) -> np.ndarray:
    c = as_poly(coeffs)
    if c.size == 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def polymul(a, b) -> np.ndarray:
    return np.convolve(as_poly(a), as_poly(b))


def polyadd(a, b) -> np.ndarray:
    a, b = as_poly(a), as_poly(b)
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    out = np.array([1.0 + 0.0j])
    for r in np.atleast_1d(np.asarray(roots, dtype=complex)):
        out = np.convolve(out, np.array([-r, 1.0 + 0.0j]))
    return out


def polydivmod(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean division a = q*b + r with deg r < deg b."""
    a = trim(as_poly(a), 0.0).copy()
    b = trim(as_poly(b))
    if b.size == 1 and b[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if a.size < b.size:
        return np.zeros(1, dtype=complex), a
    q = np.zeros(a.size - b.size + 1, dtype=complex)
    for k in range(q.size - 1, -1, -1):
        q[k] = a[k + b.size - 1] / b[-1]
        a[k : k + b.size] -= q[k] * b
    return q, a[: b.size - 1] if b.size > 1 else np.zeros(1, dtype=complex)


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of a polynomial by Aberth-Ehrlich simultaneous iteration.

    Starts from points on a circle sized by the Cauchy bound. Converges when
    the largest relative correction stays below ``ABERTH_RTOL``. Raises
    RootFindFailure when ``ABERTH_MAX_ITER`` steps are exhausted.
    """
    c = trim(as_poly(coeffs))
    n = c.size - 1
    if n < 1:
        return np.zeros(0, dtype=complex)
    c = c / c[-1]
    if n == 1:
        return np.array([-c[0]])
    dc = polyder(c)
    radius = 1.0 + np.max(np.abs(c[:-1]))
    k = np.arange(n)
    # slightly irrational angular offset keeps starts away from real-axis symmetry
    z = radius * np.exp(2j * np.pi * (k / n) + 0.4j)
    scale = max(radius, 1.0)
    powers = np.arange(c.size)
    for _ in range(ABERTH_MAX_ITER):
        p = polyval(c, z)
        dp = polyval(dc, z)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.1 * scale)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulse
        step = np.where(denom != 0, newton / np.where(denom == 0, 1, denom), newton)
        z = z - step
        if np.max(np.abs(step)) < ABERTH_RTOL * max(np.max(np.abs(z)), 1.0):
            return z
        # multiple roots stall the step criterion; accept on backward error
        mass = np.abs(c) @ (np.abs(z)[None, :] ** powers[:, None])
        if np.max(np.abs(polyval(c, z)) / np.maximum(mass, 1e-300)) < 1e-14:
            return z
    raise RootFindFailure(
        f"Aberth iteration did not converge for degree {n} in {ABERTH_MAX_ITER} steps")


def sorted_roots(coeffs) -> np.ndarray:
    """Aberth roots sorted lexicographically by (real, imag)."""
    roots = aberth_roots(coeffs)
    return roots[np.lexsort((roots.imag, roots.real))]
