"""Sigma function, Kleinian wp/zeta, Abel map, and the translation law.

The sigma function is assembled from the period data as

    sigma(u) = gamma0 * exp(-(1/2) u^T kappa u) * theta[a; b](P u; T)

with kappa = eta1 * omega1^{-1}, P = (1/2) omega1^{-1}, T = omega1^{-1}
omega2, and (a, b) the half-integer characteristics singled out by the
vanishing of sigma on Abel images of (g-1)-point divisors. gamma0 is fixed
so the power series of sigma at the origin starts with the Schur-polynomial
leading term (coefficient one on u_1 for genus up to two, which for genus
one is the classical sigma(u) = u + O(u^5)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curves import CurvePoint, HyperellipticCurve
from .errors import (
    CharacteristicsNotFound,
    NormalizationUnstable,
    NotALatticeVector,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
    ThetaDivisorPole,
)
from .periods import PeriodData, _continue_y, _continuous_sqrt, _refine, compute_periods
from .theta import JET, _theta_sum, suggested_radius

BASEPOINT_ANGLE = 1.2  # fixed direction of the near-infinity Abel basepoint


@dataclass(frozen=True)
class Characteristics:
    """Half-integer theta characteristics; ``a`` is the quadratic slot."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class AbelPoint:
    u: np.ndarray
    stratum: int


@lru_cache(maxsize=16)
def _gauss_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per n.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _monomials(x: np.ndarray, g: int) -> np.ndarray:
    """Rows x^0, ..., x^(g-1): the numerators of the g holomorphic forms."""
    powers = np.empty((g, x.size), dtype=complex)
    powers[0] = 1.0
    for i in range(1, g):
        powers[i] = powers[i - 1] * x
    return powers


class _AbelEngine:
    """Abel map integrals from a fixed basepoint near infinity.

    Targets are reached along straight x-segments from the basepoint, with
    left-hand detours around branch points and a square-root substitution
    for the final approach when the target is itself a branch point. The
    tail from infinity to the basepoint is computed once.
    """

    def __init__(self, curve: HyperellipticCurve):
        self.curve = curve
        self.tol = 1e-11  # agreement of two quadrature levels, per unit scale
        self.x_base = 10.0 * curve.scale * np.exp(1j * BASEPOINT_ANGLE)
        self.tail, self.y_base = self._tail_integral()

    def _min_dist(self, z: complex) -> float:
        return float(np.min(np.abs(z - self.curve.branch_points)))

    def _tail_integral(self):
        def level(n):
            s, w = _gauss_nodes(n)
            x = self.x_base / s**2
            y = _continuous_sqrt(self.curve.f(x), 0, np.sqrt(complex(self.curve.f(x[0]))))
            jac = -2.0 * self.x_base / s**3
            forms = _monomials(x, self.curve.genus)
            return (np.sum(((w * forms) * jac) / (2.0 * y), axis=-1),
                    self.x_base / s[-1] ** 2, y[-1])

        (cur, x_last, y_end), _ = _refine(level, 96, 10 * self.tol * self.curve.scale, 384)
        # y at the basepoint via a last short hop from the closest node
        y_base = _continue_y(self.curve, x_last, self.x_base, y_end, self._min_dist)
        return cur, y_base

    def _leg(self, z0, z1, y0, depth=0):
        """Integrals of the g forms along [z0, z1]; returns (vector, y_end)."""
        if depth > 24:
            raise QuadratureNonConvergence("Abel segment subdivision stalled")

        def level(n):
            t, w = _gauss_nodes(n)
            x = z0 + (z1 - z0) * t
            y = _continuous_sqrt(self.curve.f(x), 0, y0)
            jac = z1 - z0
            forms = _monomials(x, self.curve.genus)
            return np.sum(((w * forms) * jac) / (2.0 * y), axis=-1), y

        v1, y_arr1 = level(48)
        v2, y_arr2 = level(96)
        if np.max(np.abs(v2 - v1)) > self.tol * self.curve.scale:
            zm = 0.5 * (z0 + z1)
            left, ym2 = self._leg(z0, zm, y0, depth + 1)
            right, y_end = self._leg(zm, z1, ym2, depth + 1)
            return left + right, y_end
        y_end = _continue_y(self.curve, z0 + (z1 - z0) * 0.99, z1,
                            y_arr2[-1], self._min_dist)
        return v2, y_end

    def _route(self, z0, z1):
        """Waypoints from z0 to z1 detouring around interior branch points."""
        margin = 0.08 * self.curve.scale
        for e in self.curve.branch_points:
            seg = z1 - z0
            t = ((e - z0) * np.conj(seg)).real / abs(seg) ** 2
            if 0.03 < t < 0.97:
                foot = z0 + t * seg
                if abs(e - foot) < margin and abs(e - z1) > 1e-12:
                    side = 1j * seg / abs(seg)
                    w = e + side * max(2.5 * abs(e - foot), 0.15 * self.curve.scale)
                    return self._route(z0, w) + self._route(w, z1)[1:]
        return [z0, z1]

    def _final_branch_leg(self, xa, e_idx, ya):
        """Integral from xa into the branch point with index e_idx."""
        e = self.curve.branch_points[e_idx]
        s0 = np.sqrt(complex(xa - e))
        others = np.delete(self.curve.branch_points, e_idx)

        def level(n):
            t, w = _gauss_nodes(n)
            x = e + (xa - e) * t**2
            gvals = np.prod(x[:, None] - others[None, :], axis=1)
            anchor = ya / s0
            sqrt_g = _continuous_sqrt(gvals, len(t) - 1, anchor)
            sums = np.sum((w * _monomials(x, self.curve.genus)) / sqrt_g, axis=-1)
            # scalar products: numpy may fuse an array's complex products
            # (FMA), which moves the last bit
            return (np.array([-s0 * v for v in sums]),)

        (vals,), _ = _refine(level, 64, 50 * self.tol * self.curve.scale, 256)
        return vals

    def to_point(self, p: CurvePoint) -> np.ndarray:
        if p.at_infinity:
            return np.zeros(self.curve.genus, dtype=complex)
        dist = self._min_dist(p.x)
        branch_target = dist < 1e-10 * self.curve.scale
        if branch_target:
            e_idx = int(np.argmin(np.abs(p.x - self.curve.branch_points)))
            anchor = self.curve.branch_points[e_idx] + 0.25 * self.curve.scale \
                * np.exp(1j * BASEPOINT_ANGLE)
            waypoints = self._route(self.x_base, anchor)
        else:
            waypoints = self._route(self.x_base, p.x)
        total = self.tail.copy()
        y = self.y_base
        for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
            vals, y = self._leg(z0, z1, y)
            total += vals
        if branch_target:
            total += self._final_branch_leg(waypoints[-1], e_idx, y)
            return total
        d_same, d_flip = abs(y - p.y), abs(y + p.y)
        if min(d_same, d_flip) > 0.25 * max(d_same, d_flip):
            raise PathThroughBranchPoint(
                f"ambiguous arrival sheet at x = {p.x}")
        # arrival on the conjugate sheet flips the whole path to the other lift
        return total if d_same <= d_flip else -total


@dataclass(frozen=True)
class SigmaContext:
    curve: HyperellipticCurve
    periods: PeriodData
    chars: Characteristics
    gamma0: complex
    trunc_radius: int
    tol: float = 1e-12
    pole_tol: float = 1e-10
    kappa: np.ndarray = field(repr=False, default=None)
    pmat: np.ndarray = field(repr=False, default=None)
    abel: _AbelEngine = field(repr=False, default=None)

    @property
    def genus(self) -> int:
        return self.curve.genus


def lattice_decompose(pd: PeriodData, u, tol: float | None = None):
    """Real coordinates (u', u'') of u over the columns of (2 omega1, 2 omega2)."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    m = pd.lattice_matrix()
    rhs = np.concatenate([u.real, u.imag])
    c = np.linalg.solve(m, rhs)
    g = pd.genus
    if tol is not None:
        r = c - np.round(c)
        if np.max(np.abs(r)) > tol:
            raise NotALatticeVector(
                f"decomposition {c} is non-integral beyond tol {tol}")
    return c[:g], c[g:]


def reduce_mod_lattice(pd: PeriodData, u) -> np.ndarray:
    """Representative of u modulo the period lattice, with rounded coordinates."""
    u1, u2 = lattice_decompose(pd, u)
    shift = 2.0 * pd.omega1 @ np.round(u1) + 2.0 * pd.omega2 @ np.round(u2)
    return np.atleast_1d(np.asarray(u, dtype=complex)) - shift


def lattice_distance(pd: PeriodData, u) -> float:
    """Distance from u to the nearest period lattice point."""
    return float(np.max(np.abs(reduce_mod_lattice(pd, u))))


def _half_char_candidates(g: int):
    vals = (0.0, 0.5)
    for a in itertools.product(vals, repeat=g):
        for b in itertools.product(vals, repeat=g):
            yield np.array(a), np.array(b)


def riemann_characteristics(curve: HyperellipticCurve, pd: PeriodData,
                            engine: _AbelEngine | None = None) -> Characteristics:
    """The half-integer characteristics vanishing on the (g-1)-point stratum.

    All 4^g candidates are tested on Abel images of g-1 random curve points;
    exactly one must pass. Failure indicates wrong periods or sheet errors.
    """
    from .curves import random_curve_points

    g = curve.genus
    t_matrix = pd.riemann
    radius = suggested_radius(t_matrix, 1e-12)
    pmat = 0.5 * np.linalg.inv(pd.omega1)
    # lattice translates of 0 in W_{g-1}; they probe omega/T consistency
    test_z = [np.zeros(g, dtype=complex)]
    for j in range(g):
        test_z.append(pmat @ (2.0 * pd.omega2[:, j]))
        test_z.append(pmat @ (2.0 * pd.omega1[:, j] + 2.0 * pd.omega2[:, j]))
    if g > 1:
        engine = engine or _AbelEngine(curve)
        rng = np.random.default_rng(12345)
        for _ in range(6):
            u = abel_map(engine, random_curve_points(curve, rng, g - 1)).u
            test_z.append(pmat @ reduce_mod_lattice(pd, u))
    winners = []
    for a, b in _half_char_candidates(g):
        ok = True
        for z in test_z:
            val, _, _, l1 = _theta_sum(JET[0], a, b, z, t_matrix, radius, 1e-12)
            if abs(val) > 1e-5 * l1:
                ok = False
                break
        if ok:
            winners.append(Characteristics(a, b))
    if len(winners) != 1:
        raise CharacteristicsNotFound(
            f"{len(winners)} candidate characteristics vanish on the stratum")
    return winners[0]


def normalize_gamma0(curve: HyperellipticCurve, pd: PeriodData,
                     chars: Characteristics) -> complex:
    """gamma0 making the series of sigma at 0 start with the Schur term.

    For genus one and two that term has unit coefficient on u_1, so gamma0
    is the reciprocal of d(sigma)/du_1 at the origin computed with gamma0=1.
    """
    g = curve.genus
    if g > 2:
        raise NotImplementedError("gamma0 normalization implemented for genus <= 2")
    pmat = 0.5 * np.linalg.inv(pd.omega1)
    radius = suggested_radius(pd.riemann, 1e-12)
    z0 = np.zeros(g, dtype=complex)
    grad = _theta_sum(JET[1], chars.a, chars.b, z0, pd.riemann, radius, 1e-12)[1]
    d_u1 = grad @ pmat[:, 0]
    if abs(d_u1) < 1e-12:
        raise NormalizationUnstable("vanishing leading derivative at the origin")
    return 1.0 / d_u1


def sigma_context(curve: HyperellipticCurve) -> SigmaContext:
    """Build periods, characteristics, and normalization for a curve."""
    pd = compute_periods(curve)
    engine = _AbelEngine(curve)
    chars = riemann_characteristics(curve, pd, engine)
    gamma0 = normalize_gamma0(curve, pd, chars)
    kappa = pd.eta1 @ np.linalg.inv(pd.omega1)
    asym = float(np.max(np.abs(kappa - kappa.T)))
    if asym > 1e-7:
        raise NormalizationUnstable(f"eta1*omega1^-1 asymmetric by {asym:.2e}")
    kappa = 0.5 * (kappa + kappa.T)
    ctx = SigmaContext(curve, pd, chars, gamma0, suggested_radius(pd.riemann, 1e-12),
                       kappa=kappa, pmat=0.5 * np.linalg.inv(pd.omega1), abel=engine)
    _spot_check_vanishing(ctx)
    return ctx


def _spot_check_vanishing(ctx: SigmaContext):
    from .curves import random_curve_points

    g = ctx.genus
    if g == 1:
        val, scale = sigma_with_scale(ctx, np.zeros(1))
    else:
        rng = np.random.default_rng(999)
        u = abel_map(ctx, random_curve_points(ctx.curve, rng, g - 1)).u
        val, scale = sigma_with_scale(ctx, u)
    if abs(val) > 1e-6 * scale:
        raise CharacteristicsNotFound(
            "sigma does not vanish on the (g-1)-point stratum")


def _jet(ctx: SigmaContext, u, order: int):
    """One theta pass at u, up to ``order`` derivatives.

    Returns the envelope gamma0 exp(-u.kappa.u/2), theta and its L1 mass,
    q = -kappa u, and the theta gradient and Hessian in the u variables
    (None below their order).
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    env = ctx.gamma0 * np.exp(-0.5 * (u @ ctx.kappa @ u))
    theta0, grad, hess, l1 = _theta_sum(
        JET[order], ctx.chars.a, ctx.chars.b, ctx.pmat @ u, ctx.periods.riemann,
        ctx.trunc_radius, ctx.tol)
    q = -(ctx.kappa @ u)
    tvec = None if grad is None else ctx.pmat.T @ grad
    hmat = None if hess is None else ctx.pmat.T @ hess @ ctx.pmat
    return env, theta0, l1, q, tvec, hmat


def _partial(ctx: SigmaContext, jet, idx) -> complex:
    """Partial derivative of sigma for 0-based labels ``idx`` from a jet."""
    env, theta0, _, q, tvec, hmat = jet
    if len(idx) == 0:
        return env * theta0
    if len(idx) == 1:
        i = idx[0]
        return env * (q[i] * theta0 + tvec[i])
    i, j = idx
    return env * ((q[i] * q[j] - ctx.kappa[i, j]) * theta0
                  + q[i] * tvec[j] + q[j] * tvec[i] + hmat[i, j])


def sigma_with_scale(ctx: SigmaContext, u) -> tuple[complex, float]:
    """sigma(u) and the cancellation scale used for divisor detection."""
    env, theta0, l1 = _jet(ctx, u, 0)[:3]
    return env * theta0, abs(env) * l1


def sigma(ctx: SigmaContext, u) -> complex:
    return sigma_with_scale(ctx, u)[0]


def sigma_deriv(ctx: SigmaContext, multi_index, u) -> complex:
    """Partial derivative of sigma for a multi-index of 1-based u labels.

    Orders zero to two are supported; that covers every derivative the
    sigma-quotient identities need at genus <= 2, the genera that
    ``normalize_gamma0`` supports.
    """
    idx = tuple(int(i) - 1 for i in multi_index)
    if len(idx) > 2:
        raise NotImplementedError("sigma derivatives of order > 2 not supported")
    return _partial(ctx, _jet(ctx, u, len(idx)), idx)


def sigma_jet2(ctx: SigmaContext, u):
    """sigma, its gradient and Hessian, and the scale |env| L1, in one pass.

    The scale is the one ``sigma_with_scale`` returns for divisor detection.
    """
    env, theta0, l1, q, tvec, hmat = _jet(ctx, u, 2)
    sig = env * theta0
    dsig = env * (q * theta0 + tvec)
    ddsig = env * ((np.outer(q, q) - ctx.kappa) * theta0
                   + np.outer(q, tvec) + np.outer(tvec, q) + hmat)
    return sig, dsig, ddsig, abs(env) * l1


def natural_index_set(g: int, n: int) -> tuple:
    """Derivative labels for the n-th natural multi-index at genus g."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= g:
        return ()
    return tuple(range(n + 1, g + 1, 2))


def sigma_natural(ctx: SigmaContext, n: int, u) -> complex:
    return sigma_deriv(ctx, natural_index_set(ctx.genus, n), u)


def sigma_sharp(ctx: SigmaContext, u) -> complex:
    return sigma_natural(ctx, 1, u)


def sigma_flat(ctx: SigmaContext, u) -> complex:
    return sigma_natural(ctx, 2, u)


def _guarded(ctx: SigmaContext, sig, scale: float, where):
    """``sig``, or ThetaDivisorPole when |sig| < pole_tol * scale, scale = |env| L1.

    The one pole test of the package: every quotient by sigma is guarded here.
    ``where`` (a label or the point) is formatted only when the test fires.
    """
    if abs(sig) < ctx.pole_tol * scale:
        raise ThetaDivisorPole(f"sigma vanished at {where}")
    return sig


def _checked_sigma(ctx: SigmaContext, jet, u) -> complex:
    env, theta0, l1 = jet[:3]
    return _guarded(ctx, env * theta0, abs(env) * l1, u)


def zeta(ctx: SigmaContext, i: int, u) -> complex:
    """Logarithmic derivative d log sigma / du_i."""
    jet = _jet(ctx, u, 1)
    return _partial(ctx, jet, (i - 1,)) / _checked_sigma(ctx, jet, u)


def _wp_entry(ctx: SigmaContext, jet, s0, i: int, j: int) -> complex:
    si = _partial(ctx, jet, (i - 1,))
    sj = _partial(ctx, jet, (j - 1,)) if j != i else si
    sij = _partial(ctx, jet, (i - 1, j - 1))
    return (si * sj - s0 * sij) / (s0 * s0)


def wp(ctx: SigmaContext, i: int, j: int, u) -> complex:
    """Kleinian wp_{ij} = -d^2 log sigma / du_i du_j."""
    jet = _jet(ctx, u, 2)
    return _wp_entry(ctx, jet, _checked_sigma(ctx, jet, u), i, j)


def wp_matrix(ctx: SigmaContext, u) -> np.ndarray:
    """All wp_{ij} at u from one 2-jet; entry [i-1, j-1] equals wp(ctx, i, j, u).

    Each entry is computed on its own, not mirrored: (i, j) and (j, i) add
    the terms of the second partial in a different order.
    """
    jet = _jet(ctx, u, 2)
    s0 = _checked_sigma(ctx, jet, u)
    labels = range(1, ctx.genus + 1)
    return np.array([[_wp_entry(ctx, jet, s0, i, j) for j in labels] for i in labels])


def abel_map(ctx_or_engine, points) -> AbelPoint:
    """Abel map of a list of curve points (the empty list maps to zero).

    Each affine point keeps its image per engine on itself (read-only), so a
    point object is integrated once however many divisors it enters.
    """
    engine = ctx_or_engine.abel if isinstance(ctx_or_engine, SigmaContext) else ctx_or_engine
    g = engine.curve.genus
    u = np.zeros(g, dtype=complex)
    affine = 0
    for p in points:
        img = p._abel.get(engine)
        if img is None:
            img = engine.to_point(p)
            if not p.at_infinity:
                img.flags.writeable = False
                p._abel[engine] = img
        u = u + img
        if not p.at_infinity:
            affine += 1
    return AbelPoint(u, min(affine, g))


def quasi_period(pd: PeriodData, ell, tol: float) -> np.ndarray:
    """2 eta1 l' + 2 eta2 l'' of ell = 2 omega1 l' + 2 omega2 l'', integral within tol."""
    l1, l2 = lattice_decompose(pd, ell, tol=tol)
    return 2.0 * pd.eta1 @ np.round(l1) + 2.0 * pd.eta2 @ np.round(l2)


def translation_factors(ctx: SigmaContext, ell, u):
    """Sign chi and exponent L with sigma(u + ell) = chi * exp(L) * sigma(u).

    The exponent is -(u + ell/2)^T (2 eta1 l' + 2 eta2 l''); the sign of the
    bilinear part follows the classical Weierstrass convention, which the
    Legendre-certified periods reproduce.
    """
    ell = np.atleast_1d(np.asarray(ell, dtype=complex))
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    l1, l2 = lattice_decompose(ctx.periods, ell, tol=1e-6)
    l1, l2 = np.round(l1), np.round(l2)
    delta2, delta1 = ctx.chars.a, ctx.chars.b  # a holds delta'', b holds delta'
    chi = np.exp(2j * np.pi * (l1 @ delta2 - l2 @ delta1 + 0.5 * (l1 @ l2)))
    chi = complex(np.sign(chi.real) if abs(chi.imag) < 1e-9 else chi)
    l_val = -(u + 0.5 * ell) @ quasi_period(ctx.periods, ell, 1e-6)
    return chi, l_val
