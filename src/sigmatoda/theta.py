"""Riemann theta series with characteristics and its z-derivatives.

theta[a; b](z; T) = sum over n in Z^g of
    exp(2 pi i ((1/2) (n+a)^T T (n+a) + (n+a)^T (z+b))).

With Y = Im T and x = n + a + Y^{-1} Im z, a term has modulus
E exp(-pi x^T Y x), E = exp(pi Im z^T Y^{-1} Im z). The sum is truncated to
the lattice points of an ellipsoid pi m^T Y m <= (R + delta)^2, m = n - n0,
about the rounded centre n0 = round(-a - Y^{-1} Im z), where delta bounds
the rounding offset, so every omitted term has pi x^T Y x > R^2 and moderate
shifts of z cost nothing in accuracy. One pass over the ellipsoid builds the
terms once and sums one complex row block against them: with
s = 2 pi i (n+a), the rows 1, s_k and s_k s_m (m >= k) give the value, the
gradient and the Hessian, and the optional mixed rows below follow them in
the same block. One matmul gives every row's sum, and one more against the
block's moduli every row's L1 mass. A block depends on a point only through
its centre offset n0 + a, which a workload's points repeat, so each plan keeps
its blocks and moduli per direction pair and offset (``_row_blocks``), at
most PAIRS_KEPT x OFFSETS_KEPT blocks of 24 R M bytes for R rows and M points
(3.7 MB for the canonical genus-2 curve's mixed plan, R = 9, M = 133).

The ellipsoid comes from a plan, built once per (T, tol, row layout) and
cached (``_plan``); a pass's ``radius`` caps how far from the centre its
plan may reach. The plan's R is the least, in steps of 1/16, for which two
checks pass for every row order N of the layout at the row's unit scale
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
L1 mass, and either failing raises TruncationInsufficient. A stack of points
shares one pass, each point with its own checks and the bits of its own call.

Given two z-directions w1 and w2, the block also holds the mixed moments of
orders (2, 1), (1, 2) and (2, 2) along them, with p_i = s.w_i: the terms by
p1^2 p2, p1 p2^2 and p1^2 p2^2. With the gradient and Hessian they give
every derivative D1^i D2^j theta with i, j <= 2, each with its own two
checks. When w1 equals w2 the rows (2, 1) and (1, 2) are one row,
summed and checked once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import TruncationInsufficient

DEFAULT_TOL = 1e-12
# derivative orders a jet of order 0, 1 or 2 takes beside the value
JET = ((), (1,), (1, 2))
_R_STEP = 1.0 / 16  # granularity of a plan's R, in units of sqrt(pi x^T Y x)
_TWO_PI_I, _PI_I = 2j * math.pi, 1j * math.pi
PAIRS_KEPT = 8  # direction pairs whose row blocks a plan keeps
OFFSETS_KEPT = 16  # centre offsets whose row blocks a pair keeps


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
    """The truncation of theta at one (T, tol, row layout); read-only.

    ``radius`` is R; ``points`` are the offsets m from the rounded centre,
    those from index ``shell`` on having a neighbour m +- e_i outside the
    ellipsoid; ``s`` = 2 pi i m, one row per coordinate, and ``quad`` =
    2 pi i (1/2) m^T T m per point, ``yinv`` = (Im T)^{-1} and ``extent``
    the largest |m_i|.
    ``coef[N, p]`` is the coefficient of c^p in the proven bound, over E, of
    the omitted L1 mass of a row of order N along unit directions,
    c = |Y^{-1} Im z|; ``row_coef`` holds it per row of the plan's layout
    (``row_orders``), times exp(delta^2) / tol, and ``hess_rows`` the row of
    each Hessian entry (k, m).
    """

    radius: float
    points: np.ndarray
    shell: int
    s: np.ndarray
    quad: np.ndarray
    yinv: np.ndarray
    extent: int
    coef: np.ndarray
    row_orders: tuple
    row_coef: np.ndarray
    hess_rows: np.ndarray
    # the one mutable field: the row blocks of its last passes (_row_blocks)
    blocks: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def _row_orders(g: int, order: int, n_mixed: int) -> tuple:
    """Derivative order of each row of a pass: value, gradient, Hessian, mixed.

    The mixed rows are p1^2 p2, p1 p2^2, p1^2 p2^2, or p^3, p^4 along one
    direction (``n_mixed`` 3 or 2).
    """
    rows = [0] + [1] * g * (order >= 1) + [2] * (g * (g + 1) // 2) * (order >= 2)
    return tuple(rows + [[], [], [3, 4], [3, 3, 4]][n_mixed])


def _plan(t_matrix: np.ndarray, tol: float, order: int, n_mixed: int = 0) -> ThetaPlan:
    """The cached plan of a pass of ``JET[order]`` with ``n_mixed`` mixed rows."""
    return _cached_plan(t_matrix.tobytes(), t_matrix.shape[0], float(tol), order, n_mixed)


@lru_cache(maxsize=32)
def _cached_plan(t_bytes: bytes, g: int, tol: float, order: int, n_mixed: int) -> ThetaPlan:
    t_matrix = np.frombuffer(t_bytes, dtype=complex).reshape(g, g)
    y = t_matrix.imag
    row_orders = _row_orders(g, order, n_mixed)
    top = max(row_orders)
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
    # the rows 1, s_k, s_k s_m (m >= k) of a pass hold the Hessian
    pairs = [(k, m) for k in range(g) for m in range(k, g)]
    hess_rows = np.array([g + 1 + pairs.index((min(k, m), max(k, m)))
                          for k in range(g) for m in range(g)])
    plan = ThetaPlan(r, points, int(np.count_nonzero(~on_shell)), _TWO_PI_I * points.T,
                     quad, np.linalg.inv(y), int(np.max(np.abs(points))),
                     coef, row_orders,
                     coef.T[:, list(row_orders)] * (math.exp(delta * delta) / tol), hess_rows)
    for arr in (plan.points, plan.s, quad, plan.yinv, coef, plan.row_coef, hess_rows):
        arr.flags.writeable = False
    return plan


def _fill_rows(plan: ThetaPlan, order: int, n_mixed: int, ca: np.ndarray, mixed,
               rows: np.ndarray) -> None:
    """rows[k] = 1, s_k, s_k s_m (m >= k), mixed rows; s = 2 pi i (m + ca[k])."""
    g = ca.shape[1]
    rows[:, 0] = 1.0
    if order or n_mixed:
        s = plan.s + _TWO_PI_I * ca[:, :, None]  # (K, g, M)
    if order >= 1:
        rows[:, 1:g + 1] = s
    if order >= 2:
        j = g + 1
        for k in range(g):
            np.multiply(s[:, k:k + 1], s[:, k:], out=rows[:, j:j + g - k])
            j += g - k
    if n_mixed:
        n_jet = len(plan.row_orders) - n_mixed
        p1 = np.einsum("kim,i->km", s, mixed[0])
        p2 = p1 if n_mixed == 2 else np.einsum("kim,i->km", s, mixed[1])
        p12 = p1 * p2
        np.multiply(p12, p1, out=rows[:, n_jet])
        if n_mixed == 3:
            np.multiply(p12, p2, out=rows[:, n_jet + 1])
        np.multiply(p12, p12, out=rows[:, -1])


def _row_blocks(plan: ThetaPlan, order: int, ca: np.ndarray, mixed, n_mixed: int):
    """(rows, mags, row_coef) at the centre offsets ca (K, g): one (R, M) block if equal.

    ``plan.blocks`` keeps per direction pair (bytes of w1, w2; the last
    PAIRS_KEPT) its row_coef, mixed rows scaled by prod |w_i|, a store of
    OFFSETS_KEPT blocks and their moduli, and each offset's slot. A pass fills
    the offsets the pair lacks, clearing it first if they do not fit.
    """
    pair = mixed[0].tobytes() + mixed[1].tobytes() if n_mixed else b""
    if pair not in plan.blocks:
        if len(plan.blocks) >= PAIRS_KEPT:
            del plan.blocks[next(iter(plan.blocks))]
        row_coef = plan.row_coef
        if n_mixed:
            n1, n2 = (math.sqrt(np.vdot(w, w).real) for w in mixed)
            scale = [n1 * n1 * n2, n1 * n2 * n2, (n1 * n2) ** 2]
            row_coef = row_coef * ([1.0] * (len(plan.row_orders) - n_mixed)
                                   + (scale[::2] if n_mixed == 2 else scale))
        shape = (OFFSETS_KEPT, len(plan.row_orders), len(plan.points))
        plan.blocks[pair] = (row_coef, np.empty(shape, complex), np.empty(shape), {})
    row_coef, rows, mags, slots = plan.blocks[pair]
    # the one row of an order-0 pass without mixed rows is 1 at every centre
    raw, step = ca.tobytes(), ca.itemsize * ca.shape[1] * (len(plan.row_orders) > 1)
    keys = [raw[k * step:(k + 1) * step] for k in range(len(ca))]
    new = [key for key in dict.fromkeys(keys) if key not in slots]
    if len(slots) + len(new) > OFFSETS_KEPT:
        slots.clear()
        new = list(dict.fromkeys(keys))
        if len(new) > OFFSETS_KEPT:  # a pass wider than the store gets its own
            rows, mags, slots = np.empty((len(new),) + rows.shape[1:], complex), \
                np.empty((len(new),) + rows.shape[1:]), {}
    if new:
        lo, hi = len(slots), len(slots) + len(new)
        _fill_rows(plan, order, n_mixed, ca[[keys.index(key) for key in new]], mixed,
                   rows[lo:hi])
        np.abs(rows[lo:hi], out=mags[lo:hi])
        slots.update(zip(new, range(lo, hi)))
    at = [slots[key] for key in keys]
    if len(set(at)) == 1:
        return rows[at[0]], mags[at[0]], row_coef
    return rows.take(at, axis=0), mags.take(at, axis=0), row_coef


_SAME_DIRECTION = np.array([0, 0, 1])  # (2, 1) and (1, 2) are one row when w1 == w2


def _theta_sum(deriv, a, b, z, t_matrix, radius, tol, mixed=None):
    """(value, grad, hess, l1) of theta[a; b] at z from one lattice pass.

    ``deriv`` is ``JET[order]`` for order 0, 1 or 2; grad and hess are None
    above that order. l1 is the L1 mass of the value's terms. The pass sums
    the plan of (T, tol) for its rows, whose points must lie within
    ``radius`` of the centre in every coordinate, else TruncationInsufficient.
    With ``mixed = (w1, w2)``, a fifth entry holds the moments along them of
    orders (2, 1), (1, 2) and (2, 2). A stack z of shape (K, g) adds a
    leading axis of size K to every entry.
    """
    order = JET.index(tuple(deriv))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = t_matrix.shape[0]
    n_mixed = 0
    if mixed is not None:
        w1, w2 = mixed = tuple(np.asarray(w, dtype=complex) for w in mixed)
        n_mixed = 2 if w1 is w2 or bool((w1 == w2).all()) else 3
    plan = _plan(t_matrix, tol, order, n_mixed)
    if plan.extent > radius:
        raise TruncationInsufficient(
            f"the theta plan at tol {tol:.1e} reaches {plan.extent} > radius {radius}")
    zb = z.reshape(-1, g) + b
    k_pts, n_pts = zb.shape[0], plan.points.shape[0]
    shift = zb.imag @ plan.yinv  # its bits reach the outputs only through the rounding
    ca = a - np.rint(shift + a)  # n0 + a at the rounded centre n0
    # 2 pi i ((1/2)(m+ca)^T T (m+ca) + (m+ca).zb) = quad + m.lin + const with
    # lin = 2 pi i (T ca + zb) and const = pi i ca.(T ca + 2 zb), and the
    # powers of c = |Y^-1 Im z| for the proven bound: elementwise ufuncs and
    # two-operand einsum over the K points, which give each point the bits of
    # its own call (a matmul with a (K, g) operand does not)
    tc = np.einsum("ij,kj->ki", t_matrix, ca)
    lin = _TWO_PI_I * (tc + zb)
    const = _PI_I * np.einsum("ki,ki->k", ca, tc + 2.0 * zb)
    c_pow = np.sqrt(np.einsum("ki,ki->k", shift, shift))[:, None] \
        ** np.arange(plan.row_coef.shape[0])
    expo = np.matmul(plan.points, lin.view(float).reshape(k_pts, g, 2)).view(complex)
    expo += plan.quad[:, None]
    expo += const[:, None, None]
    base = np.exp(expo)  # (K, M, 1): the terms, and below their moduli
    mod = np.exp(expo.real[..., 0])
    rows, mags, row_coef = _row_blocks(plan, order, ca, mixed, n_mixed)
    # one (R, M) block broadcasts over the K points in both matmuls
    sums = np.matmul(rows, base)[..., 0]
    l1s = np.matmul(mags, mod[:, :, None])[..., 0]
    tails = (mags[..., plan.shell:] * mod[:, None, plan.shell:]).max(axis=2)
    tails *= (n_pts - plan.shell) / tol
    # the proven bound E sum_p coef c^p per row, over tol, with c = |Y^-1 Im z|
    # and E = exp(pi Im z.Y^-1 Im z) <= exp(delta^2) l1 of the value: the
    # term at the centre has modulus at least E exp(-delta^2)
    proven = (c_pow @ row_coef) * l1s[:, :1]
    if (np.maximum(tails, proven) > l1s).any():
        raise TruncationInsufficient(
            f"theta tail exceeds tol {tol:.1e} (plan radius {plan.radius:.3f})")
    out = [sums[:, 0], sums[:, 1:g + 1] if order >= 1 else None,
           sums[:, plan.hess_rows].reshape(k_pts, g, g) if order >= 2 else None,
           l1s[:, 0]]
    if n_mixed:
        mixed_sums = sums[:, len(plan.row_orders) - n_mixed:]
        out.append(mixed_sums[:, _SAME_DIRECTION] if n_mixed == 2 else mixed_sums)
    if z.ndim == 1:  # one point: drop the stack axis
        out = [None if x is None else x[0] for x in out]
        out[3] = float(out[3])
    return tuple(out)


def theta_char(a, b, z, t_matrix, radius: int | None = None,
               tol: float = DEFAULT_TOL) -> complex:
    """Theta with characteristics a (quadratic slot) and b (linear slot).

    ``radius`` caps the plan's reach from the centre; by default it is the
    plan's own extent.
    """
    if radius is None:
        t = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
        radius = _plan(t, tol, 0).extent
    return _theta_sum(JET[0], a, b, z, t_matrix, radius, tol)[0]
