"""Hyperelliptic curves y^2 = f(x) with f monic of odd degree 2g+1.

The curve stores the genus g and the coefficients lambda_0..lambda_{2g} of
f(x) = x^{2g+1} + lambda_{2g} x^{2g} + ... + lambda_0. The implicit leading
coefficient lambda_{2g+1} = 1 is never stored. A single smooth point at
infinity is represented by the ``INFINITY`` sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import BadArity, BranchPointSingularity, DegenerateCurve, RootFindFailure
from .polyutil import as_poly, polyder, polyval, sorted_roots

ROOT_SEPARATION = 1e-9


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) on a curve, or the point at infinity.

    ``_abel`` holds the point's Abel image per Abel engine, filled by
    ``sigma.abel_map``; it is not part of the value, so equality and hashing
    ignore it.
    """

    x: complex
    y: complex
    at_infinity: bool = False
    _abel: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def conj(self) -> "CurvePoint":
        """Hyperelliptic involution (x, y) -> (x, -y)."""
        if self.at_infinity:
            return self
        return CurvePoint(self.x, -self.y)


INFINITY = CurvePoint(0.0, 0.0, at_infinity=True)


@dataclass(frozen=True)
class HyperellipticCurve:
    genus: int
    lam: tuple  # lambda_0 .. lambda_{2g}, ascending

    @cached_property
    def f_coeffs(self) -> np.ndarray:
        """Coefficients of f, ascending, including the monic leading 1."""
        return np.concatenate([as_poly(self.lam), [1.0 + 0.0j]])

    @cached_property
    def f_prime_coeffs(self) -> np.ndarray:
        return polyder(self.f_coeffs)

    def f(self, x):
        return polyval(self.f_coeffs, x)

    def f_prime(self, x):
        return polyval(self.f_prime_coeffs, x)

    def lam_at(self, j: int) -> complex:
        """lambda_j with the convention lambda_{2g+1} = 1, zero beyond."""
        if j == 2 * self.genus + 1:
            return 1.0 + 0.0j
        if 0 <= j <= 2 * self.genus:
            return complex(self.lam[j])
        return 0.0 + 0.0j

    @cached_property
    def branch_points(self) -> np.ndarray:
        """Roots of f sorted lexicographically by (real, imag)."""
        try:
            return sorted_roots(self.f_coeffs)
        except RootFindFailure as exc:
            raise DegenerateCurve(
                "root finder failed; roots are likely not distinct") from exc

    @cached_property
    def scale(self) -> float:
        """Length scale of the branch-point configuration (at least 1)."""
        return max(1.0, float(np.max(np.abs(self.branch_points))))

    def point(self, x, sheet: int = 0) -> CurvePoint:
        """Lift x to the curve; sheet 0 takes the principal square root."""
        y = np.sqrt(complex(self.f(x)))
        return CurvePoint(complex(x), y if sheet == 0 else -y)


def make_curve(genus: int, lam) -> HyperellipticCurve:
    """Validated curve from genus and the 2g+1 coefficients of f below x^{2g+1}.

    Raises BadArity for a wrong-length coefficient list and DegenerateCurve
    when two roots of f coincide within the separation threshold.
    """
    if genus < 1:
        raise BadArity(f"genus must be >= 1, got {genus}")
    lam = tuple(complex(c) for c in np.atleast_1d(np.asarray(lam, dtype=complex)))
    if len(lam) != 2 * genus + 1:
        raise BadArity(
            f"expected {2 * genus + 1} coefficients for genus {genus}, got {len(lam)}")
    curve = HyperellipticCurve(genus, lam)
    e = curve.branch_points
    sep = np.min(np.abs(e[:, None] - e[None, :]) + np.diag(np.full(e.size, np.inf)))
    if sep < ROOT_SEPARATION * curve.scale:
        raise DegenerateCurve(
            f"branch points separated by {sep:.3e}, below threshold")
    return curve


def phi_monomial(g: int, i: int) -> tuple[int, bool]:
    """Exponent of x and y-flag of the monomial phi_i of the affine ring.

    phi_i = x^i for i <= g, then x^{(i-g)/2 + g} and x^{(i-g-1)/2} y
    alternate for even and odd offsets i - g.
    """
    if i <= g:
        return i, False
    if (i - g) % 2 == 0:
        return (i - g) // 2 + g, False
    return (i - g) // 2, True


def phi(curve: HyperellipticCurve, i: int, p: CurvePoint) -> complex:
    """Monomial basis of the affine ring, evaluated at an affine point."""
    if p.at_infinity:
        raise ValueError("phi is defined on affine points only")
    expo, has_y = phi_monomial(curve.genus, i)
    return p.x**expo * p.y if has_y else p.x**expo


def phi_series(g: int, i: int, x, yj: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of phi_i in h = x' - x up to h^(order-1).

    ``yj`` is the y-jet at the point (``y_jet``), read when phi_i carries y.
    """
    expo, has_y = phi_monomial(g, i)
    xs = np.array([comb(expo, r) * x ** (expo - r) if r <= expo else 0.0
                   for r in range(order)], dtype=complex)
    return np.convolve(xs, yj)[:order] if has_y else xs


def baker_f2(curve: HyperellipticCurve, x1, x2) -> complex:
    """Symmetric two-point polynomial with f(x, x) = 2 f(x).

    Sum over i of x1^i x2^i (lambda_{2i+1} (x1 + x2) + 2 lambda_{2i}).
    """
    total = 0.0 + 0.0j
    x1 = complex(x1)
    x2 = complex(x2)
    for i in range(curve.genus + 1):
        total += x1**i * x2**i * (
            curve.lam_at(2 * i + 1) * (x1 + x2) + 2.0 * curve.lam_at(2 * i))
    return total


def f12(curve: HyperellipticCurve, x) -> complex:
    """Confluent limit of (f(x1, x2) - 2 y1 y2) / (x1 - x2)^2 on one sheet.

    Equals f'(x)^2 / (4 f(x)) minus the polynomial part
    sum_i ((i^2 + i) lambda_{2i+1} x^{2i-1} + i^2 lambda_{2i} x^{2i-2}).
    For genus 1 this is the x-coordinate of the doubled point.
    """
    x = complex(x)
    fx = complex(curve.f(x))
    if abs(fx) < 1e-12 * curve.scale ** (2 * curve.genus + 1):
        raise BranchPointSingularity(f"f({x}) is numerically zero")
    poly_part = 0.0 + 0.0j
    for i in range(1, curve.genus + 1):
        poly_part += (i * i + i) * curve.lam_at(2 * i + 1) * x ** (2 * i - 1)
        poly_part += i * i * curve.lam_at(2 * i) * x ** (2 * i - 2)
    return complex(curve.f_prime(x)) ** 2 / (4.0 * fx) - poly_part


def y_jet(curve: HyperellipticCurve, x, k_max: int, y0=None) -> np.ndarray:
    """Taylor coefficients of y(x + h) = sqrt(f(x + h)) up to order k_max.

    The recurrence matches the square of the jet against the Taylor shift
    of f, so the result is exact given the sheet value y0 (principal square
    root by default).
    """
    x = complex(x)
    fx = complex(curve.f(x))
    if abs(fx) < 1e-14 * curve.scale ** (2 * curve.genus + 1):
        raise BranchPointSingularity(f"y vanishes at x = {x}")
    y0 = np.sqrt(fx) if y0 is None else complex(y0)
    deg = 2 * curve.genus + 1
    f_shift = np.zeros(k_max + 1, dtype=complex)
    dcoeffs = curve.f_coeffs
    fact = 1.0
    for k in range(k_max + 1):
        if k > 0:
            dcoeffs = polyder(dcoeffs)
            fact *= k
        f_shift[k] = (polyval(dcoeffs, x) / fact) if k <= deg else 0.0
    jets = np.zeros(k_max + 1, dtype=complex)
    jets[0] = y0
    for k in range(1, k_max + 1):
        cross = sum(jets[i] * jets[k - i] for i in range(1, k))
        jets[k] = (f_shift[k] - cross) / (2.0 * y0)
    return jets


def vandermonde(xs) -> complex:
    """Vandermonde product prod_{i<j} (x_j - x_i)."""
    xs = np.asarray(xs, dtype=complex)
    out = 1.0 + 0.0j
    for i in range(xs.size):
        for j in range(i + 1, xs.size):
            out *= xs[j] - xs[i]
    return out


def random_curve_points(curve: HyperellipticCurve, rng: np.random.Generator,
                        count: int) -> list[CurvePoint]:
    """Sample affine points away from branch points, random sheet per point.

    x is drawn from an annulus around the branch-point centroid and rejected
    within ``0.1 * curve.scale`` of any branch point.
    """
    e = curve.branch_points
    center = np.mean(e)
    pts: list[CurvePoint] = []
    while len(pts) < count:
        r = curve.scale * rng.uniform(0.3, 2.0)
        x = center + r * np.exp(2j * np.pi * rng.uniform())
        if np.min(np.abs(x - e)) < 0.1 * curve.scale:
            continue
        pts.append(curve.point(x, sheet=int(rng.integers(2))))
    return pts
