"""Frobenius determinants, divisor reduction, and the addition identities.

Each analytic identity is exposed as a two-sided residual evaluator that
computes the sigma-function side and the algebraic side independently and
returns |LHS - RHS| / max(|LHS|, |RHS|, tiny). Confluent determinant limits
are taken exactly through Taylor-coefficient rows, never by numerical
limiting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    CurvePoint,
    HyperellipticCurve,
    baker_f2,
    f12,
    phi,
    phi_monomial,
    phi_series,
    y_jet,
)
from .errors import ConfluentInput, IndeterminateLimit, RootFindFailure
from .polyutil import (
    poly_from_roots,
    polyadd,
    polydivmod,
    polymul,
    polyval,
    sorted_roots,
    trim,
)
from .sigma import SigmaContext, abel_map, sigma, sigma_natural, sigma_sharp, wp_matrix

TINY = 1e-30


def fs_det(curve: HyperellipticCurve, pts) -> complex:
    """Determinant with rows (1, phi_1(P_i), ..., phi_{n-1}(P_i))."""
    n = len(pts)
    if n < 1:
        raise ValueError("need at least one point")
    mat = np.array([[phi(curve, j, p) for j in range(n)] for p in pts])
    return complex(np.linalg.det(mat))


def _group_points(pts, tol: float):
    groups: list[tuple[CurvePoint, int]] = []
    for p in pts:
        for k, (q, m) in enumerate(groups):
            if abs(p.x - q.x) < tol and abs(p.y - q.y) < tol:
                groups[k] = (q, m + 1)
                break
        else:
            groups.append((p, 1))
    return groups


def _jet_rows(curve: HyperellipticCurve, p: CurvePoint, mult: int, n_cols: int):
    """Taylor-coefficient rows of the basis monomials at p, orders 0..mult-1."""
    if mult > 1 and abs(curve.f(p.x)) < 1e-12 * curve.scale:
        raise ConfluentInput("confluent limits at branch points unsupported")
    yj = y_jet(curve, p.x, mult - 1, p.y) if mult > 1 else np.array([p.y])
    rows = np.zeros((mult, n_cols), dtype=complex)
    for j in range(n_cols):
        rows[:, j] = phi_series(curve.genus, j, p.x, yj, mult)
    return rows


def _confluent_matrix(curve: HyperellipticCurve, pts, n_cols: int) -> np.ndarray:
    blocks = [_jet_rows(curve, p, m, n_cols)
              for p, m in _group_points(pts, 1e-12 * curve.scale)]
    return np.vstack(blocks)


def mu_n(curve: HyperellipticCurve, p: CurvePoint, pts) -> complex:
    """Confluent ratio of Frobenius determinants with one extra point.

    The extra point sits in the last row, which normalizes mu_g(P; ...) to
    the monic polynomial F(x_P) with the base x-values as roots.
    """
    n = len(pts)
    mat = _confluent_matrix(curve, pts, n + 1)
    den = np.linalg.det(mat[:, :n])
    scale = np.max(np.abs(mat)) ** n + TINY
    if abs(den) < 1e-13 * scale:
        raise IndeterminateLimit("denominator determinant vanishes")
    last = np.array([[phi(curve, j, p) for j in range(n + 1)]])
    num = np.linalg.det(np.vstack([mat, last]))
    return complex(num / den)


def _mu_cofactors(curve: HyperellipticCurve, pts) -> np.ndarray:
    """cof_j with mu(X) = sum_j phi_j(X) cof_j, from the jet rows."""
    n = len(pts)
    mat = _confluent_matrix(curve, pts, n + 1)
    cols = np.arange(n + 1)
    cof = np.zeros(n + 1, dtype=complex)
    for j in range(n + 1):
        minor = mat[:, cols != j]
        cof[j] = (-1.0) ** j * np.linalg.det(minor)
    return cof


@dataclass(frozen=True)
class ReducedDivisor:
    """Extra zeros Q_i of mu_n and their involution images.

    input + zeros is linearly equivalent to a multiple of infinity, so the
    class of the input divisor (based at infinity) is represented by
    ``negated``.
    """

    zeros: tuple
    negated: tuple


def reduce_divisor(curve: HyperellipticCurve, pts) -> ReducedDivisor:
    """Extra zeros of mu_n, realizing divisor reduction to at most g points."""
    n = len(pts)
    if n < 1:
        raise ValueError("need at least one point")
    g = curve.genus
    ell = g if n >= g else n
    cof = _mu_cofactors(curve, pts)
    a_poly = np.zeros(1, dtype=complex)
    b_poly = np.zeros(1, dtype=complex)
    for j, c in enumerate(cof):
        if c == 0:
            continue
        expo, has_y = phi_monomial(g, j)
        mono = np.zeros(expo + 1, dtype=complex)
        mono[expo] = c
        if has_y:
            b_poly = polyadd(b_poly, mono)
        else:
            a_poly = polyadd(a_poly, mono)
    zero_poly = polyadd(polymul(a_poly, a_poly),
                        -polymul(polymul(b_poly, b_poly), curve.f_coeffs))
    zero_poly = trim(zero_poly, 1e-10)
    if zero_poly.size - 1 > n + ell:
        raise RootFindFailure("zero divisor degree exceeds the expected bound")
    input_poly = poly_from_roots([p.x for p in pts])
    quotient, remainder = polydivmod(zero_poly, input_poly)
    if np.max(np.abs(remainder)) > 1e-6 * max(np.max(np.abs(zero_poly)), 1.0):
        raise RootFindFailure("input points do not divide the zero divisor")
    quotient = trim(quotient, 1e-10)
    if quotient.size <= 1:
        return ReducedDivisor((), ())
    roots = sorted_roots(quotient)
    zeros: list[CurvePoint] = []
    k = 0
    cluster_tol = 1e-8 * curve.scale
    while k < roots.size:
        cluster = [roots[k]]
        while k + 1 < roots.size and abs(roots[k + 1] - roots[k]) < cluster_tol:
            k += 1
            cluster.append(roots[k])
        k += 1
        x_hat = complex(np.mean(cluster))
        y_abs = np.sqrt(complex(curve.f(x_hat)))
        if len(cluster) == 2:
            zeros.append(CurvePoint(x_hat, y_abs))
            zeros.append(CurvePoint(x_hat, -y_abs))
            continue
        if abs(y_abs) < 1e-8 * curve.scale:
            zeros.append(CurvePoint(x_hat, 0.0))
            continue
        score_plus = abs(polyval(a_poly, x_hat) + polyval(b_poly, x_hat) * y_abs)
        score_minus = abs(polyval(a_poly, x_hat) - polyval(b_poly, x_hat) * y_abs)
        gap = abs(score_plus - score_minus)
        if gap > 1e-9 * max(score_plus, score_minus, 1e-300):
            zeros.append(CurvePoint(x_hat, y_abs if score_plus < score_minus
                                    else -y_abs))
            continue
        # both lifts are zeros (the y part of mu vanishes here); take the
        # sheet the input divisor consumed less
        n_plus = sum(1 for p in pts if abs(p.x - x_hat) < cluster_tol
                     and abs(p.y - y_abs) <= abs(p.y + y_abs))
        n_minus = sum(1 for p in pts if abs(p.x - x_hat) < cluster_tol
                      and abs(p.y - y_abs) > abs(p.y + y_abs))
        zeros.append(CurvePoint(x_hat, -y_abs if n_plus >= n_minus else y_abs))
    return ReducedDivisor(tuple(zeros), tuple(q.conj() for q in zeros))


def add_on_jacobian(curve: HyperellipticCurve, divisor, p: CurvePoint):
    """Class of divisor + p as a reduced divisor list (may be empty)."""
    pts = list(divisor) + [p]
    return list(reduce_divisor(curve, pts).negated)


def point_multiples(curve: HyperellipticCurve, p: CurvePoint, count: int):
    """Reduced divisors of ell * p for ell = 1..count."""
    out = [[p]]
    for _ in range(count - 1):
        out.append(add_on_jacobian(curve, out[-1], p))
    return out


def epsilon_n(g: int, n: int) -> float:
    if n <= g:
        return (-1.0) ** (g + n * (n + 1) // 2)
    return (-1.0) ** (((2 * n - g) * (g - 1)) // 2)


def delta_sign(g: int, m: int, n: int) -> float:
    return (-1.0) ** (g * n + n * (n - 1) // 2 + m * n)


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), TINY)


def _fs_sides(ctx: SigmaContext, pts):
    n = len(pts)
    us = [abel_map(ctx, [p]).u for p in pts]
    total = np.sum(us, axis=0)
    num = sigma_natural(ctx, n, total)
    for i in range(n):
        for j in range(i + 1, n):
            num *= sigma_natural(ctx, 2, us[i] - us[j])
    den = np.prod([sigma_sharp(ctx, u) ** n for u in us])
    return num / den, epsilon_n(ctx.genus, n) * fs_det(ctx.curve, pts)


def _coincident(pts) -> bool:
    return len(_group_points(pts, 1e-9)) < len(pts)


def fs_residual(ctx: SigmaContext, pts) -> float:
    """Two-sided residual of the Frobenius determinant identity.

    Coincident points make both sides vanish; the residual is zero by
    convention there.
    """
    if _coincident(pts):
        return 0.0
    lhs, rhs = _fs_sides(ctx, pts)
    return _rel(lhs, rhs)


def fs_residual_report(ctx: SigmaContext, pts) -> dict:
    """Residual plus a pure-sign-anomaly flag.

    The identity has net odd homogeneity in the sigma normalization when
    1 + n(n-1)/2 - n^2 is odd, so its overall sign depends on a convention
    the construction does not pin down; such cases are reported rather than
    silently flipped.
    """
    if _coincident(pts):
        return {"residual": 0.0, "sign_anomaly": False}
    lhs, rhs = _fs_sides(ctx, pts)
    direct = _rel(lhs, rhs)
    flipped = _rel(lhs, -rhs)
    return {"residual": min(direct, flipped),
            "sign_anomaly": bool(flipped < 1e-3 and direct > 1.0)}


def _base_sums(u_pts, x1p, x2p):
    """F(x1'), F(x2') and sum_i y_i / ((x1' - x_i)(x2' - x_i) F'(x_i)).

    F is the monic polynomial with the base x-values as roots.
    """
    xs = np.array([p.x for p in u_pts])
    ys = np.array([p.y for p in u_pts])
    fpoly = poly_from_roots(xs)
    fp = np.array([np.prod(x - np.delete(xs, i)) for i, x in enumerate(xs)])
    if np.min(np.abs(fp)) < 1e-12:
        raise ConfluentInput("repeated base point")
    f1, f2 = polyval(fpoly, x1p), polyval(fpoly, x2p)
    return f1, f2, np.sum(ys / ((x1p - xs) * (x2p - xs) * fp))


def xi(curve: HyperellipticCurve, u_pts, v1: CurvePoint, v2: CurvePoint) -> complex:
    """Two-term cross ratio entering the g+2 point addition identity."""
    g = curve.genus
    if len(u_pts) != g:
        raise ValueError(f"need {g} points for the base divisor")
    x1p, x2p = v1.x, v2.x
    if abs(x1p - x2p) < 1e-12 * curve.scale:
        raise ConfluentInput("coincident primed points")
    xs = np.array([p.x for p in u_pts])
    if np.min(np.abs(xs[:, None] - np.array([[x1p, x2p]]))) < 1e-12 * curve.scale:
        raise ConfluentInput("base divisor meets the primed points")
    f1, f2, s1 = _base_sums(u_pts, x1p, x2p)
    s2 = (-v1.y / f1 + v2.y / f2) / (x1p - x2p)
    return complex(f1 * f2 * (s1**2 - s2**2))


def thm_add_residual(ctx: SigmaContext, m_pts, n_pts) -> float:
    """Residual of the general m+n addition identity."""
    g = ctx.genus
    m, n = len(m_pts), len(n_pts)
    u = abel_map(ctx, m_pts).u
    v = abel_map(ctx, n_pts).u
    lhs = (sigma_natural(ctx, m + n, u + v) * sigma_natural(ctx, m + n, u - v)
           / (sigma_natural(ctx, m, u) ** 2 * sigma_natural(ctx, n, v) ** 2))
    flipped = [p.conj() for p in n_pts]
    num = (fs_det(ctx.curve, list(m_pts) + list(n_pts))
           * fs_det(ctx.curve, list(m_pts) + flipped))
    den = (fs_det(ctx.curve, m_pts) * fs_det(ctx.curve, n_pts)) ** 2
    pair = np.prod([[qj.x - pi.x for qj in n_pts] for pi in m_pts])
    rhs = delta_sign(g, m, n) * num / (den * pair)
    return _rel(lhs, rhs)


def baker_rhs(curve: HyperellipticCurve, u_pts, x1p, x2p) -> complex:
    """Algebraic side of the two-point bilinear identity for wp."""
    f1, f2, s1 = _base_sums(u_pts, x1p, x2p)
    d2 = (x1p - x2p) ** 2
    return complex(f1 * f2 * s1**2
                   - curve.f(x1p) * f2 / (d2 * f1)
                   - curve.f(x2p) * f1 / (d2 * f2)
                   + baker_f2(curve, x1p, x2p) / d2)


def baker_residual(ctx: SigmaContext, u_pts, v1: CurvePoint, v2: CurvePoint) -> float:
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    wpm = wp_matrix(ctx, u)
    lhs = sum(wpm[i - 1, j - 1] * v1.x ** (i - 1) * v2.x ** (j - 1)
              for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, baker_rhs(ctx.curve, u_pts, v1.x, v2.x))


def fay_residual(ctx: SigmaContext, u_pts, v1: CurvePoint, v2: CurvePoint) -> float:
    """Residual of the two-point kernel identity for sigma quotients."""
    if abs(v1.x - v2.x) < 1e-12 * ctx.curve.scale:
        raise ConfluentInput("coincident primed points")
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    v = abel_map(ctx, [v1, v2]).u
    lhs = (sigma(ctx, u + v) * sigma(ctx, u - v)
           / (sigma(ctx, u) ** 2 * sigma_natural(ctx, 2, v) ** 2))
    kernel = (baker_f2(ctx.curve, v1.x, v2.x) - 2 * v1.y * v2.y) / (v1.x - v2.x) ** 2
    wpm = wp_matrix(ctx, u)
    ssum = sum(wpm[i - 1, j - 1] * v1.x ** (i - 1) * v2.x ** (j - 1)
               for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, kernel - ssum)


def deg1_residual(ctx: SigmaContext, u_pts, v1: CurvePoint) -> float:
    """Residual of the coincident-point (doubling) specialization."""
    g = ctx.genus
    u = abel_map(ctx, u_pts).u
    v = abel_map(ctx, [v1]).u
    lhs = (sigma(ctx, u + 2 * v) * sigma(ctx, u - 2 * v)
           / (sigma(ctx, u) ** 2 * sigma_natural(ctx, 2, 2 * v) ** 2))
    wpm = wp_matrix(ctx, u)
    ssum = sum(wpm[i - 1, j - 1] * v1.x ** (i + j - 2)
               for i in range(1, g + 1) for j in range(1, g + 1))
    return _rel(lhs, f12(ctx.curve, v1.x) - ssum)


def deg2_F_check(ctx: SigmaContext, u_pts, v1: CurvePoint) -> float:
    """Residual of the one-point specialization against F(x_1')."""
    u = abel_map(ctx, u_pts).u
    v = abel_map(ctx, [v1]).u
    lhs = (sigma(ctx, u + v) * sigma(ctx, u - v)
           / (sigma(ctx, u) ** 2 * sigma_sharp(ctx, v) ** 2))
    rhs = np.prod([v1.x - p.x for p in u_pts])
    return _rel(lhs, complex(rhs))
