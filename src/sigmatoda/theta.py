"""Riemann theta series with characteristics and its z-derivatives.

theta[a; b](z; T) = sum over n in Z^g of
    exp(2 pi i ((1/2) (n+a)^T T (n+a) + (n+a)^T (z+b))).

With Y = Im T and x = n + a + Y^{-1} Im z, a term has modulus
E exp(-pi x^T Y x), E = exp(pi Im z^T Y^{-1} Im z). The sum is truncated to
the lattice points of an ellipsoid pi m^T Y m <= (R + delta)^2, m = n - n0,
about the rounded centre n0 = round(-a - Y^{-1} Im z), where delta bounds
the rounding offset, so every omitted term has pi x^T Y x > R^2 and moderate
shifts of z cost nothing in accuracy. One pass over the ellipsoid builds the
terms once and sums one complex row block against them: with s = 2 pi i
(n+a) and p_k = s.w_k along one or two directions w1, w2 (a partial is the
sum along a unit vector), the rows p1^i p2^j give D1^i D2^j theta. One
matmul gives every row's sum, and one of the block's moduli against the
terms' every row's L1 mass; an order-0 pass sums against one row of ones
and keeps no store. A bound pass (``bind``) keeps the blocks of
OFFSETS_KEPT centre offsets n0 + a, which a workload's points repeat
(``_row_blocks``), 24 R M bytes each: 460 kB for the canonical genus-2 curve, R = 9, M = 133.

The ellipsoid comes from a plan, built once per (T, tol, top row order) and
cached (``_plan``); a pass's ``radius`` caps how far from the centre its
plan may reach. The plan's R is the least, in steps of 1/16, for which two
checks pass for every row order N up to the top at the row's unit scale
(2 pi tau)^N, with the value's L1 mass at least E exp(-delta^2):

- the proven bound of Deconinck, Heil, Bobenko, van Hoeij and Schmies
  (Math. Comp. 73 (2004), Theorem 2 for the value, Theorem 3 for a
  derivative of order N <= 4): the omitted terms' L1 mass is at most E
  times (2 pi)^N prod |w_i| sum_j C(N, j) tau^j c^(N-j) G_j(R), with
  c = |Y^{-1} Im z|, G_j(R) = (g/2) (2/rho)^g Gamma((g+j)/2, (R - rho/2)^2),
  rho the shortest nonzero vector of sqrt(pi) chol(Y) Z^g and
  tau = 1/sqrt(pi lambda_min(Y)), for R past the theorems' subharmonic radius;
- the measured shell estimate: the largest term on the discrete shell (the
  points with a neighbour m +- e_i outside the ellipsoid) times the shell's
  size. On the shell pi x^T Y x > (R - e_max)^2, e_max the longest
  sqrt(pi Y_ii), which sizes R for it beforehand.

Every row of every point then runs both checks against tol times that row's
own L1 mass, the proven one with E bounded by exp(delta^2) times the value's
L1 mass and prod |w_k| per factor, and either failing raises
TruncationInsufficient; an L1 mass that is not finite (terms that overflow
far from the origin) raises NonFiniteValue. A stack of points shares one
pass, each point with its own checks and the bits of its own call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonFiniteValue, TruncationInsufficient

DEFAULT_TOL = 1e-12
# derivative orders a jet of order 0, 1 or 2 takes beside the value
JET = ((), (1,), (1, 2))
_R_STEP = 1.0 / 16  # granularity of a plan's R, in units of sqrt(pi x^T Y x)
_TWO_PI_I, _PI_I = 2j * math.pi, 1j * math.pi
OFFSETS_KEPT = 16  # centre offsets whose row blocks a bound pass keeps


def _upper_gamma(s2: int, x: float) -> float:
    """Gamma(s2 / 2, x), the upper incomplete gamma at a half-integer order.

    Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)), Gamma(1, x) = exp(-x), and
    Gamma(s + 1, x) = s Gamma(s, x) + x^s exp(-x).
    """
    s = 0.5 if s2 % 2 else 1.0
    val = math.sqrt(math.pi) * math.erfc(math.sqrt(x)) if s2 % 2 else math.exp(-x)
    while 2 * s < s2:
        val = s * val + x**s * math.exp(-x)
        s += 1.0
    return val


def _norms(vecs: np.ndarray, y_matrix: np.ndarray) -> np.ndarray:
    """sqrt(pi v^T Y v) for each row v."""
    return np.sqrt(np.pi * np.einsum("ki,ij,kj->k", vecs, y_matrix, vecs))


def _box(extents) -> np.ndarray:
    """The lattice points with |m_i| <= extents[i], as rows of floats."""
    axes = np.meshgrid(*(np.arange(-e, e + 1.0) for e in extents), indexing="ij")
    return np.stack([axis.ravel() for axis in axes], axis=1)


@dataclass(frozen=True, eq=False)
class ThetaPlan:
    """The truncation of theta at one (T, tol, top derivative order); read-only.

    ``radius`` is R; ``points`` are the offsets m from the rounded centre,
    those from index ``shell`` on having a neighbour m +- e_i outside the
    ellipsoid; ``s`` = 2 pi i m, one row per coordinate, ``quad`` = 2 pi i
    (1/2) m^T T m per point, ``yinv`` = (Im T)^{-1} and ``extent`` the
    largest |m_i|. ``coef[N, p]`` is the
    coefficient of c^p, c = |Y^{-1} Im z|, in the proven bound over E of the
    omitted L1 mass of a row of order N along unit directions, ``tail_coef``
    its transpose times exp(delta^2) / tol and ``half_powers`` p / 2.
    """

    radius: float
    points: np.ndarray
    shell: int
    s: np.ndarray
    quad: np.ndarray
    yinv: np.ndarray
    extent: int
    coef: np.ndarray
    tail_coef: np.ndarray
    half_powers: np.ndarray


@dataclass(frozen=True, eq=False)
class ThetaPass:
    """A theta pass bound once (``bind``): all its calls read but z, and its row blocks.

    Its rows are p1^i p2^j, p_k = s.w_k along ``along``, i, j from ``exps``;
    ``pick`` reads a call's sums D1^i D2^j theta off them in the order
    (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2),
    ``row_coef`` is the proven bound per row, and ``rows``, ``mags`` and
    ``slots`` keep up to OFFSETS_KEPT blocks (``_row_blocks``); an order-0
    pass keeps one row of ones in ``rows`` and ``mags`` instead.
    """

    plan: ThetaPlan
    a: np.ndarray
    b: np.ndarray
    along: tuple
    exps: list
    pick: list
    row_coef: np.ndarray
    rows: np.ndarray = field(repr=False)
    mags: np.ndarray = field(repr=False)
    slots: dict = field(repr=False)


def _plan(t_matrix: np.ndarray, tol: float, top: int) -> ThetaPlan:
    """The cached plan of a pass whose rows reach the derivative order ``top``."""
    return _cached_plan(t_matrix.tobytes(), t_matrix.shape[0], float(tol), top)


@lru_cache(maxsize=32)
def _cached_plan(t_bytes: bytes, g: int, tol: float, top: int) -> ThetaPlan:
    t_matrix = np.frombuffer(t_bytes, dtype=complex).reshape(g, g)
    y = t_matrix.imag
    lam_min = float(np.linalg.eigvalsh(y)[0])
    if lam_min <= 0:
        raise ValueError("Im T must be positive definite")
    tau = 1.0 / math.sqrt(math.pi * lam_min)
    # shortest nonzero lattice vector: |m|^2 <= Y_kk / lam_min bounds its m
    reach = int(math.ceil(math.sqrt(float(np.min(np.diag(y))) / lam_min)))
    cand = _box([reach] * g)
    rho = float(np.min(_norms(cand[np.any(cand != 0, axis=1)], y)))
    corners = 0.5 * np.array(list(itertools.product((-1.0, 1.0), repeat=g)))
    delta = float(np.max(_norms(corners, y)))
    e_max = float(np.max(_norms(np.eye(g), y)))
    # the value's floor: the term nearest the centre has pi x^T Y x <= delta^2
    floor = tol * math.exp(-delta * delta)
    pref = 0.5 * g * (2.0 / rho) ** g

    def gam(j, r):
        return pref * _upper_gamma(g + j, (r - 0.5 * rho) ** 2)

    # Theorem 3 needs the Gaussian moments subharmonic outside R - rho/2
    r = 0.5 * (math.sqrt(g + 2 * top + math.sqrt(g * g + 8 * top)) + rho)
    while any(gam(n, r) > floor for n in range(top + 1)):
        r += _R_STEP
    # the measured shell estimate: a shell point lies beyond R - e_max
    outer = r + delta + 8.0
    cand = _box([int(math.ceil(outer * math.sqrt(y_ii / math.pi)))
                 for y_ii in np.diag(np.linalg.inv(y))])
    nu = _norms(cand, y)
    cand, nu = cand[nu <= outer], nu[nu <= outer]
    mu = np.max([_norms(cand + sgn * e, y) for e in np.eye(g) for sgn in (1, -1)], axis=0)
    while True:
        inner = r - e_max
        size = np.count_nonzero((nu <= r + delta) & (mu > r + delta))
        if inner >= math.sqrt(top / 2) and all(
                size * inner**n * math.exp(-inner * inner) <= floor
                for n in range(top + 1)):
            break
        r += _R_STEP
        if r + delta > outer:
            raise TruncationInsufficient(f"no theta plan within radius {outer}")
    keep = nu <= r + delta
    on_shell = mu[keep] > r + delta
    # interior first, then the shell, so the shell is one slice
    points = np.concatenate([cand[keep][~on_shell], cand[keep][on_shell]])
    quad = (1j * np.pi) * np.einsum("ki,ij,kj->k", points, t_matrix, points)
    coef = np.zeros((top + 1, top + 1))
    for n in range(top + 1):
        for p in range(n + 1):
            coef[n, p] = ((2 * math.pi) ** n * math.comb(n, p) * tau ** (n - p)
                          * gam(n - p, r))
    plan = ThetaPlan(r, points, int(np.count_nonzero(~on_shell)), _TWO_PI_I * points.T, quad,
                     np.linalg.inv(y), int(np.max(np.abs(points))), coef,
                     coef.T * (math.exp(delta * delta) / tol), 0.5 * np.arange(top + 1.0))
    for arr in (plan.points, plan.s, plan.quad, plan.yinv, coef, plan.tail_coef,
                plan.half_powers):
        arr.flags.writeable = False
    return plan


def bind(t_matrix, tol: float, top: int, a, b, along=()) -> ThetaPass:
    """The pass of theta[a; b] over T at tol along ``along``, its rows to order ``top``.

    It sums the rows p1^i p2^j, p_k = s.w_k, with i, j <= 2 and i + j <=
    top <= 4; along one direction, or when w2 equals w1, the row p^n holds
    every sum of order n. An order-0 pass reads no direction, at any genus.
    """
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    along = tuple(np.asarray(w, dtype=complex) for w in along)
    if top and not along:
        raise ValueError("a theta pass of order > 0 needs a direction")
    along = along[:1] if len(along) == 2 and np.array_equal(*along) else along

    def row(e):  # the row of the sum D1^i D2^j
        return (e[0] + e[1], 0) if len(along) == 1 else e

    def by_order(e):
        return e[0] + e[1], -e[0]

    pairs = sorted(((i, j) for i in range(3) for j in range(3) if i + j <= top), key=by_order)
    exps = sorted({row(e) for e in pairs}, key=by_order)
    norms = [math.sqrt(np.vdot(w, w).real) for w in along] + [1.0, 1.0]
    plan = _plan(t_matrix, tol, top)
    # the store of row blocks; an order-0 pass keeps its one row of ones
    shape = (OFFSETS_KEPT, len(exps), len(plan.points)) if top else (1, len(plan.points))
    rows = np.empty(shape, complex) if top else np.ones(shape, complex)
    return ThetaPass(plan, np.atleast_1d(np.asarray(a, dtype=float)),
                     np.atleast_1d(np.asarray(b, dtype=float)), along, exps,
                     [exps.index(row(e)) for e in pairs[1:]],
                     plan.tail_coef[:, [i + j for i, j in exps]]
                     * [norms[0] ** i * norms[1] ** j for i, j in exps],
                     rows, np.empty(shape) if top else np.ones(shape), {})


def _fill_rows(tp: ThetaPass, ca: np.ndarray, rows: np.ndarray) -> None:
    """The row blocks at the centre offsets ca (K, g), s = 2 pi i (m + ca[k]).

    The row p1^i p2^j is the row of one factor fewer times p1 or p2.
    """
    rows[:, 0] = 1.0
    s = tp.plan.s + _TWO_PI_I * ca[:, :, None]  # (K, g, M)
    p = [np.einsum("kim,i->km", s, w) for w in tp.along]
    for r, (i, j) in enumerate(tp.exps[1:], start=1):
        np.multiply(rows[:, tp.exps.index((i - 1, j) if i else (i, j - 1))],
                    p[0 if i else 1], out=rows[:, r])


def _row_blocks(tp: ThetaPass, ca: np.ndarray):
    """(rows, mags) at the centre offsets ca (K, g): one (R, M) block if all are equal.

    A pass fills the offsets the store lacks, clearing it first if they do
    not fit, or builds its own blocks past OFFSETS_KEPT offsets.
    """
    rows, mags, slots = tp.rows, tp.mags, tp.slots
    raw, step = ca.tobytes(), ca.itemsize * ca.shape[1]
    keys = [raw] if len(ca) == 1 else [raw[k * step:(k + 1) * step] for k in range(len(ca))]
    at = [slots.get(key) for key in keys]
    if None in at:
        new = list(dict.fromkeys(key for key in keys if key not in slots))
        if len(slots) + len(new) > OFFSETS_KEPT:
            slots.clear()
            new = list(dict.fromkeys(keys))
            if len(new) > OFFSETS_KEPT:
                rows, mags, slots = np.empty((len(new),) + rows.shape[1:], complex), \
                    np.empty((len(new),) + rows.shape[1:]), {}
        lo, hi = len(slots), len(slots) + len(new)
        _fill_rows(tp, ca[[keys.index(key) for key in new]], rows[lo:hi])
        np.abs(rows[lo:hi], out=mags[lo:hi])
        slots.update(zip(new, range(lo, hi)))
        at = [slots[key] for key in keys]
    if len(set(at)) == 1:
        return rows[at[0]], mags[at[0]]
    return rows.take(at, axis=0), mags.take(at, axis=0)


def _theta_sum(deriv, z, t_matrix, radius, tol, tp):
    """(value, sums, l1) of theta[a; b] at z from one pass of ``tp``.

    ``tp`` is the pass bound for T and tol (``bind``) whose rows serve
    ``deriv`` = ``JET[order]``; sums holds its sums D1^i D2^j theta in the
    order of ``ThetaPass.pick``, None at order 0, and l1 is the L1 mass of
    the value's terms. The plan's points must lie within ``radius`` of the
    centre in every coordinate, else TruncationInsufficient. A stack z of
    shape (K, g) adds a leading axis of size K to every entry.
    """
    plan, order = tp.plan, len(deriv)
    if plan.extent > radius:
        raise TruncationInsufficient(
            f"the theta plan at tol {tol:.1e} reaches {plan.extent} > radius {radius}")
    g = t_matrix.shape[0]
    zb = z.reshape(-1, g) + tp.b
    k_pts, n_pts = zb.shape[0], plan.points.shape[0]
    shift = zb.imag @ plan.yinv  # its bits reach the outputs only through the rounding
    ca = tp.a - np.rint(shift + tp.a)  # n0 + a at the rounded centre n0
    # 2 pi i ((1/2)(m+ca)^T T (m+ca) + (m+ca).zb) = quad + m.lin + const with
    # lin = 2 pi i (T ca + zb) and const = pi i ca.(T ca + 2 zb), and the
    # powers of c = |Y^-1 Im z| for the proven bound: elementwise ufuncs and
    # two-operand einsum over the K points, which give each point the bits of
    # its own call (a matmul with a (K, g) operand does not)
    tc = np.einsum("ij,kj->ki", t_matrix, ca)
    lin = _TWO_PI_I * (tc + zb)
    const = _PI_I * np.einsum("ki,ki->k", ca, tc + 2.0 * zb)
    c_pow = np.einsum("ki,ki->k", shift, shift)[:, None] ** plan.half_powers  # c^p
    expo = np.matmul(plan.points, lin.view(float).reshape(k_pts, g, 2)).view(complex)
    expo += plan.quad[:, None]
    expo += const[:, None, None]
    mod = np.exp(expo.real[..., 0])  # (K, M): the terms' moduli
    # an order-0 pass reads its one row of ones; one (R, M) block broadcasts
    # over the K points in both matmuls
    rows, mags = _row_blocks(tp, ca) if order else (tp.rows, tp.mags)
    sums = np.matmul(rows, np.exp(expo))[..., 0]
    l1s = np.matmul(mags, mod[:, :, None])[..., 0]
    tails = (mags[..., plan.shell:] * mod[:, None, plan.shell:]).max(axis=2)
    tails *= (n_pts - plan.shell) / tol
    # the proven bound E sum_p coef c^p per row, over tol, with c = |Y^-1 Im z|
    # and E = exp(pi Im z.Y^-1 Im z) <= exp(delta^2) l1 of the value: the
    # term at the centre has modulus at least E exp(-delta^2). A row's excess
    # over its L1 mass is NaN where an overflow made the masses infinite.
    if not (np.maximum(tails, (c_pow @ tp.row_coef) * l1s[:, :1]) - l1s <= 0.0).all():
        if not np.isfinite(l1s).all():
            bad = np.argmin(np.isfinite(l1s).all(axis=1))
            raise NonFiniteValue(f"theta terms overflow at z = {z.reshape(-1, g)[bad]}")
        raise TruncationInsufficient(
            f"theta tail exceeds tol {tol:.1e} (plan radius {plan.radius:.3f})")
    out = [sums[:, 0], sums[:, tp.pick] if order else None, l1s[:, 0]]
    if z.ndim == 1:  # one point: drop the stack axis
        out = [None if x is None else x[0] for x in out]
        out[2] = float(out[2])
    return tuple(out)


def theta_char(a, b, z, t_matrix, radius: int | None = None,
               tol: float = DEFAULT_TOL) -> complex:
    """Theta with characteristics a (quadratic slot) and b (linear slot).

    ``radius`` caps the plan's reach from the centre; by default it is the
    plan's own extent.
    """
    tp = bind(t_matrix, tol, 0, a, b)
    return _theta_sum(JET[0], np.atleast_1d(np.asarray(z, dtype=complex)),
                      np.atleast_2d(np.asarray(t_matrix, dtype=complex)),
                      tp.plan.extent if radius is None else radius, tol, tp)[0]
