"""The former Lax layer, kept as the reference of the one-expression builders.

``former_lax_matrix`` set the periodic Lax matrix entry by entry in Python,
and ``former_char_poly`` ran the three-term recursion through the
``polyadd``/``polymul`` wrappers. Imported by the tests; not collected (its
name does not start with test_).
"""

import numpy as np

from sigmatoda.polyutil import polyadd, polymul


def former_lax_matrix(state, w_hat: complex) -> np.ndarray:
    """Periodic tridiagonal Lax matrix with spectral parameter w_hat."""
    n = state.n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        mat[k, k] = state.b[k]
        if k + 1 < n:
            mat[k, k + 1] = 1.0
            mat[k + 1, k] = state.a[k]
    mat[0, n - 1] += state.a[n - 1] / w_hat
    mat[n - 1, 0] += w_hat
    return mat


def former_lax_minus_z(state, samples) -> np.ndarray:
    """The stack of L(w_hat) - z * I that the determinant check took."""
    n = state.n_sites
    return np.array([former_lax_matrix(state, w_hat) - z * np.eye(n)
                     for z, w_hat in samples])


def _former_tridiag_charpoly(b, a, lo: int, hi: int) -> np.ndarray:
    """det of the tridiagonal block over sites lo..hi in z, ascending coeffs."""
    if hi < lo:
        return np.array([1.0 + 0.0j])
    prev2 = np.array([1.0 + 0.0j])
    prev1 = np.array([b[lo], -1.0], dtype=complex)
    for k in range(lo + 1, hi + 1):
        cur = polyadd(polymul(np.array([b[k], -1.0]), prev1), -a[k - 1] * prev2)
        prev2, prev1 = prev1, cur
    return prev1


def former_char_poly(state) -> np.ndarray:
    """P(z) ascending: det(block 1..N) - a_N det(block 2..N-1)."""
    n, a, b = state.n_sites, state.a, state.b
    return polyadd(_former_tridiag_charpoly(b, a, 0, n - 1),
                   -a[n - 1] * _former_tridiag_charpoly(b, a, 1, n - 2))
