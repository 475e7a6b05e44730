"""The former polynomial determinant, kept as the reference of the memoised one.

``former_poly_det`` expanded by cofactors along the first row and recomputed
every minor, in time factorial in the size. Imported by the tests; not
collected (its name does not start with test_).
"""

import numpy as np

from sigmatoda.polyutil import polyadd, polymul


def former_poly_det(mat):
    """Determinant of a small matrix of polynomials by cofactor expansion."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    out = np.zeros(1, dtype=complex)
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = polymul(mat[0][j], former_poly_det(minor))
        out = polyadd(out, term if j % 2 == 0 else -term)
    return out
