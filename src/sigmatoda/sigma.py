"""Sigma function, Kleinian wp/zeta, Abel map, and lattice quasi-periods.

The sigma function is assembled from the period data as

    sigma(u) = gamma0 * exp(-(1/2) u^T kappa u) * theta[a; b](P u; T)

with kappa = eta1 * omega1^{-1}, P = (1/2) omega1^{-1}, T = omega1^{-1}
omega2, and (a, b) the half-integer characteristic of the vector of
Riemann constants, read off the branch-point images and certified on Abel
images of (g-1)-point divisors (``riemann_characteristics``). gamma0 is
fixed so the power series of sigma at the origin starts with the Schur
term (coefficient one on u_1 for genus up to two, which for genus one is
the classical sigma(u) = u + O(u^5)).

Every theta pass is bound once per context, top row order and pair of
directions (``_bound``). One assembly turns a pass into per-point records of
sigma and its derivatives along two directions (``_sigma_jets``): sigma, its
partials and its directional 2-jet all read it, so the product rule is
written once; zeta and wp read log theta, past the envelope, from the bound
pass of the partials of theta (``_log_theta``). Each record column is
one expression over the K points of a pass, in elementwise ufuncs and
two-operand einsum, which give a point in a stack the bits of its own call;
a matmul with a (K, g) operand or a three-operand einsum can sum in another
order per stack.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curves import CurvePoint, HyperellipticCurve
from .errors import (
    CharacteristicsNotFound,
    NormalizationUnstable,
    NonFiniteValue,
    NotALatticeVector,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
    ThetaDivisorPole,
    VanishingGap,
)
from .periods import AGREE_TOL, PeriodData, compute_periods
from .theta import DEFAULT_TOL, JET, ThetaPass, _plan, _theta_sum, bind

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


POLE_TOL = 1e-10  # |sigma| below this times its scale is a pole (``_guarded``)
LEG_SPLIT = 48  # the coarse level of an Abel leg; the fine level has 96 nodes
PASSES_KEPT = 8  # bound passes, by order and directions, a context keeps (_bound)


@lru_cache(maxsize=1)
def _leg_nodes():
    """The 48- and 96-node rules of ``_gauss_nodes``, concatenated; read-only."""
    (t1, w1), (t2, w2) = _gauss_nodes(LEG_SPLIT), _gauss_nodes(2 * LEG_SPLIT)
    nodes, weights = np.concatenate([t1, t2]), np.concatenate([w1, w2])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _monomials(x: np.ndarray, g: int) -> np.ndarray:
    """x^0, ..., x^(g-1) on a new second-to-last axis: the numerators of the forms.

    x of shape (N,) gives rows of shape (g, N), and a stack (L, N) gives (L, g, N).
    """
    powers = np.empty((*x.shape[:-1], g, x.shape[-1]), dtype=complex)
    powers[..., 0, :] = 1.0
    for i in range(1, g):
        powers[..., i, :] = powers[..., i - 1, :] * x
    return powers


class _AbelEngine:
    """Abel map integrals, anchored at the branch points.

    With e_0, ..., e_{2g} the chain of the periods and seg_k the first-kind
    integral over its segment (e_k, e_{k+1}) (``PeriodData.segments``), the
    images of the branch points are, modulo the period lattice,

        abel(e_{2g}) = sum_i omega1[:, i],
        abel(e_j) = abel(e_{2g}) - sum_{k >= j} seg_k,

    half periods read off the periods with no quadrature of their own. An
    affine point P is reached by a leg from the branch point e_j nearest to
    it, with x = e_j + (x_P - e_j) s^2; its sheet and the leg's factor are
    found per point (``_final_branch_leg``), and the legs of all points of
    one call share one node pass (``to_points``). Every image is returned
    reduced modulo the lattice.
    """

    def __init__(self, curve: HyperellipticCurve, periods: PeriodData):
        self.curve = curve
        self.periods = periods
        self.tol = AGREE_TOL  # agreement of two quadrature levels, per unit scale
        self.chain = periods.chain
        self.others = np.array([np.delete(self.chain, j) for j in range(self.chain.size)])
        tails = np.cumsum(periods.segments[:, ::-1], axis=1)[:, ::-1]
        images = np.sum(periods.omega1, axis=1)[:, None] - np.hstack(
            [tails, np.zeros((curve.genus, 1))])
        self.anchors = np.array([reduce_mod_lattice(periods, u) for u in images.T])

    def _leg(self, js, xp, factor, s_hi, depth):
        """Integrals of the g forms on legs e_j -> x_P over s in [s_hi - 2^-depth, s_hi].

        One row per leg, shape (L, g): js, xp, factor and s_hi are arrays of
        length L, and every leg of a pass has the width 2^-depth in s. On
        x = e_j + (x_P - e_j) s^2 the form x^i dx / (2y) is factor * x^i ds
        / q(s), with factor = (x_P - e_j) / y_P and q = prod_{k != j}
        sqrt((x - e_k) / (x_P - e_k)), regular at s = 0. As e_j is the
        branch point nearest x_P, each ratio lies in the disk |z - 1| <= 1,
        so its principal root is the continuous one and q(1) = 1 anchors the
        sheet on y_P. Two Gauss-Legendre levels, 48 and 96 nodes, share one
        evaluation on the concatenated nodes (``_leg_nodes``) for all legs;
        each leg keeps its own check, and a leg whose levels disagree beyond
        tol is halved, its two halves in one pass. Another branch point can
        lie close to a leg near e_j, where the halving resolves it.
        """
        if depth > 24:
            raise QuadratureNonConvergence("Abel leg subdivision stalled")
        t, w = _leg_nodes()
        width = 0.5 ** depth
        e, others = self.chain[js], self.others[js]
        x = e[:, None] + (xp - e)[:, None] * (s_hi[:, None] - width * t) ** 2
        q = np.prod(np.sqrt((x[..., None] - others[:, None])
                            / (xp[:, None] - others)[:, None]), axis=-1)
        integrand = (w * _monomials(x, self.curve.genus)) / q[:, None]
        # the factor multiplies one leg's sums at a time, a scalar product: a
        # stacked complex product may fuse differently (FMA) and move the last bit
        scales = (factor * width).tolist()
        v1, v2 = (np.array([c * row for c, row in zip(scales, np.sum(level, axis=-1))])
                  for level in (integrand[..., :LEG_SPLIT], integrand[..., LEG_SPLIT:]))
        for i in np.flatnonzero(np.max(np.abs(v2 - v1), axis=1) > self.tol * self.curve.scale):
            # depth first, as a leg that never settles must reach the cap in
            # 25 passes, not after 2^25 legs; its two halves share one pass
            pair = [i, i]
            halves = self._leg(js[pair], xp[pair], factor[pair],
                               np.array([s_hi[i], s_hi[i] - 0.5 * width]), depth + 1)
            v2[i] = halves[0] + halves[1]
        return v2

    def _final_branch_leg(self, j, p: CurvePoint) -> complex:
        """The factor (x_P - e_j) / y_P of the leg from e_j to P, on P's sheet.

        Python scalars: y over x_P from the roots, and an off-curve y_P,
        near neither sign of it, raises.
        """
        d = p.x - self.chain[j]
        y = cmath.sqrt(d) * cmath.sqrt(complex(np.prod(p.x - self.others[j])))
        d_same, d_flip = abs(y - p.y), abs(y + p.y)
        if min(d_same, d_flip) > 0.25 * max(d_same, d_flip):
            raise PathThroughBranchPoint(f"y = {p.y} lies on neither sheet over x = {p.x}")
        return d / (y if d_same <= d_flip else -y)

    def to_point(self, p: CurvePoint) -> np.ndarray:
        """The image of one point, the one-point call of ``to_points``."""
        return self.to_points([p])[0]

    def to_points(self, points) -> np.ndarray:
        """Images of the points, shape (K, g), with one node pass for all their legs.

        Infinity maps to 0 and a point within 1e-10 scale of a branch point
        to its anchor. The legs of the other points, s from 0 to 1, share
        the passes of ``_leg``, and each image is reduced modulo the lattice
        on its own, so it has the bits of its own one-point call.
        """
        out = np.zeros((len(points), self.curve.genus), dtype=complex)
        legs = []  # (row, j, x_P, factor) of each point reached by a leg
        for k, p in enumerate(points):
            if p.at_infinity:
                continue
            j = int(np.argmin(np.abs(p.x - self.chain)))
            if abs(p.x - self.chain[j]) < 1e-10 * self.curve.scale:
                out[k] = self.anchors[j]
            else:
                legs.append((k, j, p.x, self._final_branch_leg(j, p)))
        if legs:
            rows, js, xps, factors = zip(*legs)
            sums = self._leg(np.array(js), np.array(xps, dtype=complex),
                             np.array(factors, dtype=complex), np.ones(len(legs)), 0)
            for k, j, row in zip(rows, js, sums):
                out[k] = reduce_mod_lattice(self.periods, self.anchors[j] + row)
        return out


@dataclass(frozen=True)
class SigmaContext:
    curve: HyperellipticCurve
    periods: PeriodData
    chars: Characteristics
    gamma0: complex
    trunc_radius: int  # reach of the widest theta plan; a wider plan raises
    kappa: np.ndarray = field(repr=False)
    pmat: np.ndarray = field(repr=False)
    abel: _AbelEngine = field(repr=False)
    tol: float = DEFAULT_TOL
    # the wp matrix at the last u asked for, one entry keyed by u's bytes;
    # see wp_matrix
    _wp: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the last PASSES_KEPT bound passes, keyed by order and directions; see _bound
    _passes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def genus(self) -> int:
        return self.curve.genus


def lattice_decompose(pd: PeriodData, u, tol: float | None = None):
    """Real coordinates (u', u'') of u over the columns of (2 omega1, 2 omega2)."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    c = pd.lattice_inverse() @ np.concatenate([u.real, u.imag])
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


def riemann_characteristics(engine: _AbelEngine) -> Characteristics:
    """The characteristic of the vector of Riemann constants, read off the anchors.

    With base point infinity that vector is the sum of the images of the
    branch points at the odd 0-based chain indices, e_1, e_3, ..., e_{2g-1}
    (Mumford, Tata Lectures on Theta II, Ch. IIIa section 5). z = P times
    that sum is b + T a, with 2a and 2b integers within 1e-6, reduced mod 2.
    One theta pass certifies that theta[a; b] vanishes on the lattice
    translates of 0 and, from genus two on, the Abel images of six seeded
    divisors of g-1 points. Either test failing raises
    CharacteristicsNotFound: wrong periods or sheet errors.
    """
    from .curves import random_curve_points

    curve, pd = engine.curve, engine.periods
    g = curve.genus
    t_matrix = pd.riemann
    pmat = 0.5 * np.linalg.inv(pd.omega1)
    z = pmat @ np.sum(engine.anchors[1::2], axis=0)
    a = np.linalg.solve(t_matrix.imag, z.imag)
    twice = 2.0 * np.concatenate([a, z.real - t_matrix.real @ a])
    off = float(np.max(np.abs(twice - np.round(twice))))
    if off > 1e-6:
        raise CharacteristicsNotFound(f"the Riemann constant lies {off:.1e} off a half period")
    a, b = np.split((np.round(twice).astype(int) % 2) * 0.5, 2)
    # lattice translates of 0 in W_{g-1}; they probe omega/T consistency
    test_z = [np.zeros(g, dtype=complex)]
    for j in range(g):
        test_z.append(pmat @ (2.0 * pd.omega2[:, j]))
        test_z.append(pmat @ (2.0 * pd.omega1[:, j] + 2.0 * pd.omega2[:, j]))
    if g > 1:
        # six divisors of g - 1 points each, all points in one node pass
        pts = random_curve_points(curve, np.random.default_rng(12345), 6 * (g - 1))
        divisors = [pts[i:i + g - 1] for i in range(0, len(pts), g - 1)]
        test_z.extend(pmat @ reduce_mod_lattice(pd, u) for u in _abel_maps(engine, *divisors))
    tp = bind(t_matrix, DEFAULT_TOL, 0, a, b)
    val, _, l1 = _theta_sum(JET[0], np.array(test_z), t_matrix, tp.plan.extent,
                            DEFAULT_TOL, tp)
    if not np.all(np.abs(val) <= 1e-5 * l1):
        raise CharacteristicsNotFound(f"theta[{a}; {b}] does not vanish on the stratum")
    return Characteristics(a, b)


def normalize_gamma0(curve: HyperellipticCurve, pd: PeriodData,
                     chars: Characteristics) -> complex:
    """gamma0 making the series of sigma at 0 start with the Schur term.

    For genus one and two that term has unit coefficient on u_1, so gamma0
    is the reciprocal of d(sigma)/du_1 at the origin computed with gamma0=1,
    the theta gradient contracted with P e_1.
    """
    g = curve.genus
    if g > 2:
        raise NotImplementedError("gamma0 normalization implemented for genus <= 2")
    pmat = 0.5 * np.linalg.inv(pd.omega1)
    z0 = np.zeros(g, dtype=complex)
    tp = bind(pd.riemann, DEFAULT_TOL, 1, chars.a, chars.b, np.eye(g, dtype=complex)[[0, -1]])
    grad = _theta_sum(JET[1], z0, pd.riemann, tp.plan.extent, DEFAULT_TOL, tp)[1][:g]
    d_u1 = grad @ pmat[:, 0]
    if abs(d_u1) < 1e-12:
        raise NormalizationUnstable("vanishing leading derivative at the origin")
    return 1.0 / d_u1


def sigma_context(curve: HyperellipticCurve) -> SigmaContext:
    """Build periods, characteristics, and normalization for a curve."""
    pd = compute_periods(curve)
    engine = _AbelEngine(curve, pd)
    chars = riemann_characteristics(engine)
    gamma0 = normalize_gamma0(curve, pd, chars)
    kappa = pd.eta1 @ np.linalg.inv(pd.omega1)
    asym = float(np.max(np.abs(kappa - kappa.T)))
    if asym > 1e-7:
        raise NormalizationUnstable(f"eta1*omega1^-1 asymmetric by {asym:.2e}")
    kappa = 0.5 * (kappa + kappa.T)
    # the widest plan of the context: rows of orders up to 4
    return SigmaContext(curve, pd, chars, gamma0, _plan(pd.riemann, DEFAULT_TOL, 4).extent,
                        kappa=kappa, pmat=0.5 * np.linalg.inv(pd.omega1), abel=engine)


@dataclass(frozen=True, eq=False)
class _Bound:
    """A theta pass bound once per context, top row order and pair of directions d1, d2.

    ``theta`` is its theta pass along w_i = P d_i, or without directions
    along the unit vectors e_1, e_g of z (the partials of theta), ``umap``
    maps u to (P u, -kappa u / 2, q1, q2), q_i = -u.kappa.d_i, in one
    two-operand einsum, and ``curvature`` is d1.kappa.d2.
    """

    theta: ThetaPass
    umap: np.ndarray
    curvature: complex | None


def _bound(ctx: SigmaContext, top: int, d1=None, d2=None) -> _Bound:
    """The bound pass of rows to order ``top`` along d1 and d2, kept for PASSES_KEPT keys."""
    if d1 is not None:
        d1 = np.asarray(d1, dtype=complex)
        d2 = d1 if d2 is d1 else np.asarray(d2, dtype=complex)
    key = (top, None if d1 is None else d1.tobytes() + d2.tobytes())
    bound = ctx._passes.get(key)
    if bound is None:
        umap, curvature = [ctx.pmat.T, -0.5 * ctx.kappa], None
        along = np.eye(ctx.genus, dtype=complex)[[0, -1]]  # e_1, e_g
        if d1 is not None:
            d1, d2 = np.atleast_1d(d1), np.atleast_1d(d2)
            kd = np.stack([ctx.kappa @ d1, ctx.kappa @ d2], axis=1)
            umap.append(-kd)
            curvature, along = complex(d1 @ kd[:, 1]), (ctx.pmat @ d1, ctx.pmat @ d2)
        tp = bind(ctx.periods.riemann, ctx.tol, top, ctx.chars.a, ctx.chars.b, along)
        if len(ctx._passes) >= PASSES_KEPT:
            del ctx._passes[next(iter(ctx._passes))]
        bound = ctx._passes[key] = _Bound(tp, np.concatenate(umap, axis=1), curvature)
    return bound


def _sigma_jets(ctx: SigmaContext, u, order: int, d1, d2) -> list:
    """Per-point sigma records along d1 and d2 from one theta pass.

    Each record is (sigma, D1 sigma, D2 sigma, D1 D2 sigma, |env| L1,
    moments) as Python scalars, None above ``order``: order 0 gives sigma
    and the scale, order 1 adds D1 sigma and D2 sigma, and order 2 adds
    D1 D2 sigma and the theta moments along w_i = P d_i relative to theta,
    (m10, m01, m20, m11, m02, m21, m12, m22) with m_ij for D1^i D2^j, from
    the context's bound pass with rows to order 4 (``_bound``). With env =
    gamma0 exp(-u.kappa.u/2), applied after the sums, q_i = -u.kappa.d_i
    and g_i, h12 the derivatives of theta along w_i,

        D_i sigma = env (q_i theta + g_i),
        D1 D2 sigma = env ((q1 q2 - d1.kappa.d2) theta + q1 g2 + q2 g1 + h12).

    u is one point or a stack of shape (K, g), any other shape raises
    ValueError; each record has the bits of its own call. A non-finite
    column, as where sigma overflows far from the origin, raises
    NonFiniteValue.
    """
    g = ctx.genus
    pts = np.atleast_2d(np.asarray(u, dtype=complex))
    if pts.ndim > 2 or pts.shape[-1] != g:
        raise ValueError(f"u of shape ({g},) or (K, {g}) expected, not {np.shape(u)}")
    # the columns sigma, |env| L1, D1 sigma, D2 sigma, D1 D2 sigma, moments
    block = np.empty((len(pts), (2, 4, 13)[order]), dtype=complex)
    bound = _bound(ctx, (0, 1, 4)[order], d1, d2)
    zq = np.einsum("ki,ij->kj", pts, bound.umap)
    with np.errstate(all="ignore"):  # an overflow is the NonFiniteValue below
        theta0, along, l1 = _theta_sum(JET[order], zq[:, :g], ctx.periods.riemann,
                                       ctx.trunc_radius, ctx.tol, bound.theta)
        env = ctx.gamma0 * np.exp(np.einsum("ki,ki->k", pts, zq[:, g:2 * g]))
        block[:, 0], block[:, 1] = env * theta0, np.abs(env) * l1
        if order:  # along holds (g1, g2, h11, h12, h22, orders 3 and 4)
            q = zq[:, 2 * g:]  # (q1, q2) per point
            block[:, 2:4] = env[:, None] * (q * theta0[:, None] + along[:, :2])
        if order == 2:
            (q1, q2), (g1, g2) = q.T, along[:, :2].T
            block[:, 4] = env * ((q1 * q2 - bound.curvature) * theta0 + q1 * g2 + q2 * g1
                                 + along[:, 3])
            block[:, 5:] = along / theta0[:, None]
    finite = np.isfinite(block)
    if not finite.all():
        where = pts[np.flatnonzero(~finite.all(axis=1))[0]]
        raise NonFiniteValue(f"the sigma record at u = {where} is not finite")
    rows = block.tolist()
    if order == 2:
        return [(r[0], r[2], r[3], r[4], r[1].real, tuple(r[5:])) for r in rows]
    return [(r[0], *(r[2:] or (None, None)), None, r[1].real, None) for r in rows]


def _one_point(ctx: SigmaContext, u) -> np.ndarray:
    """u as one point of C^g; a stack or a u of another length raises ValueError."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if u.shape != (ctx.genus,):
        raise ValueError(f"one point expected, of shape ({ctx.genus},), not {u.shape}")
    return u


def sigma_with_scale(ctx: SigmaContext, u) -> tuple[complex, float]:
    """sigma(u) and the cancellation scale used for divisor detection."""
    sig, *_, scale, _ = _sigma_jets(ctx, _one_point(ctx, u), 0, None, None)[0]
    return sig, scale


def sigma(ctx: SigmaContext, u) -> complex:
    return sigma_with_scale(ctx, u)[0]


def sigma_deriv(ctx: SigmaContext, multi_index, u) -> complex | list:
    """Partial derivative of sigma for a multi-index of 1-based u labels.

    Orders zero to two are supported; that covers every derivative the
    sigma-quotient identities need at genus <= 2, the genera that
    ``normalize_gamma0`` supports. A partial is the derivative along unit
    vectors (``_sigma_jets``). A stack u of shape (K, g) takes one theta
    pass and returns the list of the K values, each with the bits of its
    own call.
    """
    idx = tuple(int(i) - 1 for i in multi_index)
    if len(idx) > 2:
        raise NotImplementedError("sigma derivatives of order > 2 not supported")
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    units = np.eye(ctx.genus, dtype=complex)
    d1, d2 = (units[idx[0]], units[idx[-1]]) if idx else (None, None)
    vals = [rec[(0, 1, 3)[len(idx)]] for rec in _sigma_jets(ctx, u, len(idx), d1, d2)]
    return vals if u.ndim > 1 else vals[0]


def sigma_jet2(ctx: SigmaContext, u, d1, d2):
    """The 2-jet of sigma along d1 and d2 at u, from one theta pass.

    With D_i the derivative along d_i, returns (sigma, D1 sigma, D2 sigma,
    D1 D2 sigma, |env| L1, moments) as Python scalars, the order-2 record
    of ``_sigma_jets`` read off the pass's K-wide columns; sigma and the
    scale are those of ``sigma_with_scale`` within rounding, as its plan of
    rows to order 4 is wider. ``_log_gap`` turns the moments into the exact
    -D1 D2 log(v - c). A stack u of shape (K, g) takes one pass and returns
    the list of the K points' tuples, each with the bits of its own call.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    out = _sigma_jets(ctx, u, 2, d1, d2)
    return out if u.ndim > 1 else out[0]


def natural_index_set(g: int, n: int) -> tuple:
    """Derivative labels for the n-th natural multi-index at genus g."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= g:
        return ()
    return tuple(range(n + 1, g + 1, 2))


def sigma_natural(ctx: SigmaContext, n: int, u) -> complex:
    return sigma_deriv(ctx, natural_index_set(ctx.genus, n), u)


def _guarded(sig, scale: float, where):
    """``sig``, or ThetaDivisorPole when |sig| < POLE_TOL * scale, scale = |env| L1.

    The one pole test of the package: every quotient by sigma, or by theta
    in place of sigma, is guarded here; for theta the scale is its L1 mass,
    as |env| cancels from both sides.
    ``where`` (a label or the point) is formatted only when the test fires.
    """
    if abs(sig) < POLE_TOL * scale:
        raise ThetaDivisorPole(f"sigma vanished at {where}")
    return sig


def _envelope_curvature(ctx: SigmaContext, d1, d2) -> complex:
    """d1.kappa.d2, the part of -D1 D2 log sigma that the envelope adds."""
    return _bound(ctx, 4, d1, d2).curvature


def _cumulant_potential(curvature: complex, moments) -> complex:
    """v = -D1 D2 log sigma = d1.kappa.d2 - k11 from the moments of ``sigma_jet2``.

    k11 = m11 - m10 m01 is the joint cumulant of log theta along d1 and d2,
    so the envelope terms of the quotient form never enter.
    """
    m10, m01, _, m11 = moments[:4]
    return curvature - (m11 - m10 * m01)


def _log_gap(curvature: complex, moments, c, where):
    """(v, -D1 D2 log(v - c)) from the theta moments of ``sigma_jet2``.

    The envelope of sigma is quadratic, so past it only log theta counts:
    with k_ab the joint cumulants of log theta along d1 and d2 and
    ``curvature`` = d1.kappa.d2 (``_envelope_curvature``),
    v = d1.kappa.d2 - k11, D1 v = -k21, D2 v = -k12 and D1 D2 v = -k22.
    A gap |v - c| below POLE_TOL * max(1, |c|) raises VanishingGap;
    ``where`` is formatted only then.
    """
    m10, m01, m20, m11, m02, m21, m12, m22 = moments
    k21 = m21 - m20 * m01 - 2 * m11 * m10 + 2 * m10**2 * m01
    k12 = m12 - m02 * m10 - 2 * m11 * m01 + 2 * m01**2 * m10
    k22 = (m22 - 2 * (m21 * m01 + m12 * m10 + m11**2) - m20 * m02
           + 2 * (m20 * m01**2 + m02 * m10**2) + 8 * m11 * m10 * m01
           - 6 * m10**2 * m01**2)
    v = _cumulant_potential(curvature, moments)
    gap = v - c
    if abs(gap) < POLE_TOL * max(1.0, abs(c)):
        raise VanishingGap(f"v - c vanished at {where}")
    return v, (k22 * gap + k21 * k12) / gap**2


def _log_theta(ctx: SigmaContext, u, order: int):
    """(t, H / theta) at one point u from one theta pass, t = grad theta / theta.

    The gradient and the Hessian H are in the u variables, read off the
    context's bound pass of the partials of theta (``_bound``); H is None
    below order 2. Past the envelope, whose factor is never built, only log
    theta counts. The pole test compares theta with its own L1 mass, the
    test of |sigma| < POLE_TOL |env| L1 with |env| cancelled.
    """
    g = ctx.genus
    with np.errstate(all="ignore"):  # an overflow raises NonFiniteValue in the kernel
        theta0, sums, l1 = _theta_sum(JET[order], np.einsum("ij,j->i", ctx.pmat, u),
                                      ctx.periods.riemann, ctx.trunc_radius, ctx.tol,
                                      _bound(ctx, order).theta)
    _guarded(theta0, l1, u)
    t = (ctx.pmat.T @ sums[:g]) / theta0  # sums along e_1, e_g: D1, D2, D1^2, D1 D2, D2^2
    hess = sums[np.array([[2, 3], [3, 4]])[:g, :g]] if order == 2 else None
    return t, None if hess is None else (ctx.pmat.T @ hess @ ctx.pmat) / theta0


def zeta(ctx: SigmaContext, i: int, u) -> complex:
    """Logarithmic derivative d log sigma / du_i = q_i + t_i, q = -kappa u (``_log_theta``)."""
    u = _one_point(ctx, u)
    t = _log_theta(ctx, u, 1)[0]
    return -(ctx.kappa @ u)[i - 1] + t[i - 1]


def wp(ctx: SigmaContext, i: int, j: int, u) -> complex:
    """Kleinian wp_{ij} = -d^2 log sigma / du_i du_j, an entry of ``wp_matrix``."""
    return wp_matrix(ctx, u)[i - 1, j - 1]


def wp_matrix(ctx: SigmaContext, u) -> np.ndarray:
    """All wp_{ij} at u from one theta 2-jet: wp = kappa - H / theta + t t^T.

    t = grad theta / theta and H is the theta Hessian, both in u
    (``_log_theta``). This is the matrix form of ``_cumulant_potential``:
    the envelope enters through kappa only. The context keeps the matrix of
    the last u it was asked for, read-only, so checks that read wp at one
    divisor's image share one pass.
    """
    u = _one_point(ctx, u)
    key = u.tobytes()
    wpm = ctx._wp.get(key)
    if wpm is None:
        t, h = _log_theta(ctx, u, 2)
        wpm = ctx.kappa - h + np.outer(t, t)
        wpm.flags.writeable = False
        ctx._wp.clear()
        ctx._wp[key] = wpm
    return wpm


def abel_map(ctx_or_engine, points) -> AbelPoint:
    """Abel map of a list of curve points (the empty list maps to zero).

    Each affine point keeps its image per engine on itself (read-only), so a
    point object is integrated once however many divisors it enters. The
    points of a call that have no image yet, each object once, share one
    node pass (``_AbelEngine.to_points``); a pass that raises stores no image.
    """
    engine = ctx_or_engine.abel if isinstance(ctx_or_engine, SigmaContext) else ctx_or_engine
    fresh = list({id(p): p for p in points
                  if not p.at_infinity and engine not in p._abel}.values())
    if fresh:
        images = engine.to_points(fresh)
        images.flags.writeable = False
        for p, img in zip(fresh, images):
            p._abel[engine] = img
    g = engine.curve.genus
    u = np.zeros(g, dtype=complex)
    affine = 0
    for p in points:
        if not p.at_infinity:
            u = u + p._abel[engine]
            affine += 1
    return AbelPoint(u, min(affine, g))


def _abel_maps(ctx_or_engine, *divisors) -> list:
    """``abel_map(ctx_or_engine, d).u`` of each divisor d, all points in one node pass.

    The first call integrates every point of every divisor at once; the
    sums per divisor then read the images cached on the points, in order.
    """
    abel_map(ctx_or_engine, [p for d in divisors for p in d])
    return [abel_map(ctx_or_engine, d).u for d in divisors]


def quasi_period(pd: PeriodData, ell, tol: float) -> np.ndarray:
    """2 eta1 l' + 2 eta2 l'' of ell = 2 omega1 l' + 2 omega2 l'', integral within tol."""
    l1, l2 = lattice_decompose(pd, ell, tol=tol)
    return 2.0 * pd.eta1 @ np.round(l1) + 2.0 * pd.eta2 @ np.round(l2)

