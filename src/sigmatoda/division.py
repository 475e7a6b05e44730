"""Division polynomials, torsion search, and periodic Toda frames.

psi_n is computed two independent ways: a Toeplitz determinant of the jets
of y = sqrt(f) (Cantor-Brioschi form) and a Kiepert-type determinant of
along-curve derivatives of the monomial basis. The y-cleared polynomial
part alpha_n(x) comes from an exact polynomial recurrence: writing the jet
as y^[k] = A_k(x) y^(1-2k) with

    A_k = (f_k f^(k-1) - sum_{i=1}^{k-1} A_i A_{k-i}) / 2,   A_0 = 1,

every Toeplitz entry is polynomial times a fixed power of y, so alpha_n is
assembled by exact polynomial arithmetic with no interpolation step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, phi_series, y_jet
from .errors import BranchPointSingularity, DegreeMismatch, NotTorsion, worst_of
from .polyutil import (
    as_poly,
    polyadd,
    polyder,
    polydivmod,
    polymul,
    polyval,
    sorted_roots,
    trim,
)
from .sigma import abel_map, lattice_distance
from .toda import frame_well_conditioned, toda_frame

__all__ = [
    "DivisionPolynomial",
    "TorsionCandidate",
    "y_jet",
    "cantor_psi",
    "cantor_alpha",
    "kiepert_psi",
    "elliptic_psi_oracle",
    "phi_roots",
    "xi_set",
    "torsion_distance",
    "torsion_to_frame",
    "y_exponent",
    "alpha_degree",
]

TORSION_TOL = 1e-6  # bound on the lattice distance of N c for an N-periodic chain


def y_exponent(g: int, n: int) -> int:
    """Power of (2y) split off psi_n to leave the polynomial part."""
    if n > g + 1:
        return g * (g + 1) // 2 if (n - g) % 2 == 1 else g * (g - 1) // 2
    return n * (n - 1) // 2


def alpha_degree(g: int, n: int) -> int:
    """Degree of alpha_n for n >= g + 2."""
    if (n - g) % 2 == 1:
        return (g * (n + g) * (n - g) - g * (2 * g + 1)) // 2
    return (g * (n + g) * (n - g)) // 2


def _toeplitz_shape(g: int, n: int) -> tuple[int, int]:
    """(m, size) of the jet Toeplitz determinant for psi_n."""
    if (n - g) % 2 == 1:
        return g + 2, (n - g - 1) // 2
    return g + 1, (n - g) // 2


def cantor_psi(curve: HyperellipticCurve, n: int, p: CurvePoint) -> complex:
    """psi_n at a point, as (2y)^(n(n-1)/2) times the jet Toeplitz determinant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = curve.genus
    m, size = _toeplitz_shape(g, n)
    lead = (2.0 * p.y) ** (n * (n - 1) // 2)
    if size <= 0:
        return complex(lead)
    jets = y_jet(curve, p.x, m + 2 * size - 2, p.y)
    mat = np.array([[jets[m + size - 1 + r - c] for c in range(size)]
                    for r in range(size)])
    return complex(lead * np.linalg.det(mat))


@dataclass(frozen=True)
class DivisionPolynomial:
    n: int
    y_exponent: int
    alpha: np.ndarray  # ascending coefficients

    @property
    def degree(self) -> int:
        return self.alpha.size - 1


def _jet_polys(curve: HyperellipticCurve, k_max: int) -> list[np.ndarray]:
    """A_k polynomials with y^[k] = A_k(x) y^(1 - 2k)."""
    f = curve.f_coeffs
    taylor = [f]
    for k in range(1, k_max + 1):
        taylor.append(polyder(taylor[-1]) / k)
    a_polys = [np.array([1.0 + 0.0j])]
    f_pow = np.array([1.0 + 0.0j])  # f^(k-1)
    for k in range(1, k_max + 1):
        if k > 1:
            f_pow = polymul(f_pow, f)
        total = polymul(taylor[k], f_pow)
        for i in range(1, k):
            total = polyadd(total, -polymul(a_polys[i], a_polys[k - i]))
        a_polys.append(0.5 * total)
    return a_polys


def _poly_det(mat: list[list[np.ndarray]]) -> np.ndarray:
    """Determinant of a small matrix of polynomials by cofactor expansion.

    Expands along the first row; each minor is computed once, keyed by its
    remaining columns: size 2^(size - 1) products, not size!.
    """
    size = len(mat)
    minors: dict[tuple, np.ndarray] = {}

    def minor(cols: tuple) -> np.ndarray:
        row = size - len(cols)
        if len(cols) == 1:
            return mat[row][cols[0]]
        if cols not in minors:
            out = np.zeros(1, dtype=complex)
            for j, col in enumerate(cols):
                term = polymul(mat[row][col], minor(cols[:j] + cols[j + 1:]))
                out = polyadd(out, term if j % 2 == 0 else -term)
            minors[cols] = out
        return minors[cols]

    return minor(tuple(range(size)))


def cantor_alpha(curve: HyperellipticCurve, n: int) -> DivisionPolynomial:
    """alpha_n by exact polynomial jets, with its degree certified."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = curve.genus
    m, size = _toeplitz_shape(g, n)
    e = y_exponent(g, n)
    half = n * (n - 1) // 2
    if size <= 0:
        return DivisionPolynomial(n, e, np.array([2.0 ** (half - e) + 0.0j]))
    a_polys = _jet_polys(curve, m + 2 * size - 2)
    mat = [[a_polys[m + size - 1 + r - c] for c in range(size)]
           for r in range(size)]
    det = _poly_det(mat)
    # psi = 2^half y^(half + E) det with E the fixed y-power of the Toeplitz
    e_power = size - 2 * size * (m + size - 1)
    y_pow = half + e_power - e
    if y_pow % 2 != 0:
        raise DegreeMismatch(f"odd leftover y power {y_pow} for n = {n}")
    alpha = 2.0 ** (half - e) * det
    if y_pow >= 0:
        for _ in range(y_pow // 2):
            alpha = polymul(alpha, curve.f_coeffs)
    else:
        for _ in range(-y_pow // 2):
            alpha, rem = polydivmod(alpha, curve.f_coeffs)
            if np.max(np.abs(rem)) > 1e-9 * max(np.max(np.abs(alpha)), 1.0):
                raise DegreeMismatch(f"jet determinant not divisible by f at n = {n}")
    if n < g + 2:
        return DivisionPolynomial(n, e, trim(alpha, 1e-12))
    # cut at the known degree: the leading coefficient can be < 1e-12 max|alpha|
    deg = alpha_degree(g, n)
    dropped = np.max(np.abs(alpha[deg + 1:]), initial=0.0)
    if alpha.size <= deg or alpha[deg] == 0 or dropped > 1e-12 * np.max(np.abs(alpha)):
        raise DegreeMismatch(f"alpha_{n} does not have degree {deg}")
    return DivisionPolynomial(n, e, alpha[:deg + 1])


def kiepert_psi(curve: HyperellipticCurve, n: int, p: CurvePoint) -> complex:
    """psi_n from the determinant of along-curve derivatives of the basis.

    The derivation is 2y d/dx, dual to the first abelian coordinate on the
    one-point stratum; each entry is computed on truncated power series in
    x - x_p. This is the unique coordinate choice for which the ratio to
    the jet-determinant form is point independent at every genus.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1.0 + 0.0j
    g = curve.genus
    if abs(curve.f(p.x)) < 1e-12 * curve.scale:
        raise BranchPointSingularity("Kiepert determinant needs a generic point")
    order = n
    yj = y_jet(curve, p.x, order - 1, p.y)
    w_series = 2.0 * yj[:order]

    def derive(series: np.ndarray) -> np.ndarray:
        ds = np.array([(r + 1) * series[r + 1] for r in range(order - 1)] + [0.0],
                      dtype=complex)
        return np.convolve(w_series, ds)[:order]

    mat = np.zeros((n - 1, n - 1), dtype=complex)
    for j in range(1, n):
        series = phi_series(g, j, p.x, yj, order)
        for k in range(1, n):
            series = derive(series)
            mat[k - 1, j - 1] = series[0]
    norm = np.prod([factorial(k) for k in range(1, n)])
    return complex(np.linalg.det(mat) / norm)


def elliptic_psi_oracle(curve: HyperellipticCurve, n: int) -> np.ndarray:
    """Classical division polynomial for y^2 = x^3 + a x + b, up to constant.

    Computed by the doubling recurrence seeded with the closed forms of the
    first four polynomials; even-index entries carry one factor of y which
    is squared away via y^2 = f. Test oracle only.
    """
    if curve.genus != 1 or abs(curve.lam_at(2)) > 1e-13:
        raise ValueError("oracle needs genus one in short form")
    a, b = curve.lam_at(1), curve.lam_at(0)
    f = curve.f_coeffs

    def reduce_y(poly: np.ndarray, w: int) -> tuple[np.ndarray, int]:
        # poly * y^w with y^2 = f folded into the polynomial part
        for _ in range(w // 2):
            poly = polymul(poly, f)
        return poly, w % 2

    # table[k] = (poly, w) with psi_k = poly * y^w, w in {0, 1}
    table: dict[int, tuple[np.ndarray, int]] = {
        0: (np.zeros(1, dtype=complex), 0),
        1: (np.array([1.0 + 0.0j]), 0),
        2: (np.array([2.0 + 0.0j]), 1),
        3: (as_poly([-a * a, 12 * b, 6 * a, 0, 3]), 0),
        4: (as_poly([4 * (-8 * b * b - a**3), 4 * (-4 * a * b),
                     4 * (-5 * a * a), 4 * 20 * b, 4 * 5 * a, 0, 4]), 1),
    }

    def get(k: int) -> tuple[np.ndarray, int]:
        if k in table:
            return table[k]
        m = k // 2
        if k % 2 == 1:
            pa, wa = get(m + 2)
            pb, wb = get(m)
            t1, w1 = reduce_y(polymul(pa, polymul(pb, polymul(pb, pb))),
                              wa + 3 * wb)
            pc, wc = get(m - 1)
            pd, wd = get(m + 1)
            t2, w2 = reduce_y(polymul(pc, polymul(pd, polymul(pd, pd))),
                              wc + 3 * wd)
            assert w1 == w2 == 0
            out = polyadd(t1, -t2), 0
        else:
            pm, wm = get(m)
            pa, wa = get(m + 2)
            pb, wb = get(m - 1)
            t1, w1 = reduce_y(polymul(pa, polymul(pb, pb)), wa + 2 * wb)
            pc, wc = get(m - 2)
            pd, wd = get(m + 1)
            t2, w2 = reduce_y(polymul(pc, polymul(pd, pd)), wc + 2 * wd)
            assert w1 == w2
            inner = polyadd(t1, -t2)
            poly = 0.5 * polymul(pm, inner)
            total_w = wm + w1 - 1  # dividing psi_m * inner by 2y
            if total_w >= 0:
                out = reduce_y(poly, total_w)
            else:
                quotient, rem = polydivmod(poly, f)
                assert np.max(np.abs(rem)) < 1e-8 * max(np.max(np.abs(poly)), 1.0)
                out = quotient, 1
        # the closed-form degree: a relative trim dropped true leading terms
        table[k] = (out[0][:(k * k - 1) // 2 + 1 if k % 2 else (k * k - 4) // 2 + 1], out[1])
        return table[k]

    return get(n)[0]


def phi_roots(curve: HyperellipticCurve, n: int) -> list[CurvePoint]:
    """Zero set of alpha_n on the curve, both sheets per x-root."""
    alpha = cantor_alpha(curve, n).alpha
    if alpha.size <= 1:
        return []
    out = []
    for x in sorted_roots(alpha):
        p = curve.point(x)
        out.append(p)
        if abs(p.y) > 1e-10 * curve.scale:
            out.append(p.conj())
    return out


@dataclass(frozen=True)
class TorsionCandidate:
    point: CurvePoint
    order_target: int
    residuals: tuple


def _alpha_rel_residual(alpha: np.ndarray, x: complex) -> float:
    mags = np.abs(alpha) * np.abs(x) ** np.arange(alpha.size)
    return abs(polyval(alpha, x)) / max(float(np.sum(mags)), 1e-300)


def xi_set(curve: HyperellipticCurve, order: int) -> list[TorsionCandidate]:
    """Candidate torsion points: common zeros of the 2g-1 window polynomials.

    The window spans division indices order-g+1 .. order+g-1; for genus one
    it is just alpha_order. Residuals are relative to the evaluation mass
    of each polynomial.
    """
    g = curve.genus
    window = [m for m in range(order - g + 1, order + g) if m >= 1]
    alphas = {m: cantor_alpha(curve, m).alpha for m in window}
    center = alphas[order]
    if center.size <= 1:
        return []
    out = []
    for x in sorted_roots(center):
        res = tuple(_alpha_rel_residual(alphas[m], x) for m in window)
        if worst_of(*res) < 1e-6:
            out.append(TorsionCandidate(curve.point(x), order, res))
    return out


def torsion_distance(ctx, point: CurvePoint, n: int) -> float:
    """Lattice distance of n c, with c = 2 A(point): the torsion certificate.

    The chain stepped by c is n-periodic when this is at most TORSION_TOL.
    """
    return lattice_distance(ctx.periods, n * (2.0 * abel_map(ctx, [point]).u))


def torsion_to_frame(ctx, candidate: TorsionCandidate, n_period: int,
                     rng: np.random.Generator | None = None):
    """Periodic Toda frame from a certified torsion candidate.

    The certificate is ``torsion_distance`` of the candidate point at
    n_period. The base offset is resampled until all sites used by the
    residual tests are well away from the theta divisor.
    """
    v1 = candidate.point
    dist = torsion_distance(ctx, v1, n_period)
    if dist > TORSION_TOL:
        raise NotTorsion(
            f"{n_period} * c misses the lattice by {dist:.3e}")
    rng = rng or np.random.default_rng(31)
    for _ in range(40):
        frame = toda_frame(ctx, v1, rng=rng, periodic=n_period)
        if frame_well_conditioned(frame, range(-1, 2 * n_period + 3)):
            return frame
    raise NotTorsion("could not condition a periodic frame base offset")
