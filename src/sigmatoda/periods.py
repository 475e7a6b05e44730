"""Half-period matrices by contour integration over a canonical homology basis.

``build_cycles`` returns the branch points as a chain e_0, ..., e_{2g}, and
the basis is a fixed pattern of its segments (e_k, e_{k+1}) (the rule is in
``build_cycles``). A loop integral around a segment equals twice the
open-segment integral on a fixed branch of y. The branch is carried between
segments along a path passing left of the shared branch point, relative to
travel along the chain, with its sign in closed form (``_transport_signs``).

The substitution x = midpoint + halfspan*cos(theta) absorbs the inverse
square-root endpoint singularities, so the midpoint rule in theta converges
spectrally. The generalized Legendre relation is computed as a certificate
on every result; a residual above tolerance signals a sheet-tracking error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import HyperellipticCurve
from .errors import (
    LegendreCertificateFailure,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
)
from .polyutil import polyval


BASE_NODES = 256  # period quadrature starts from this many nodes per segment
MAX_NODES = 4096  # and gives up beyond this many
AGREE_TOL = 1e-11  # agreement of two node levels, per unit curve scale
CERTIFICATE_TOL = 1e-8  # bound on the Legendre residual
CHAIN_CLEARANCE = 0.005  # relative clearance that keeps the lexicographic chain
MIN_CLEARANCE = 1e-6  # relative clearance below which no chain is taken
ARC_RADIUS = 0.3  # transport arc radius, over min(half spans, clearance)
ARC_CHORDS = 8  # chords that draw the transport arc
DECISION_RATIO = 0.2  # min over max of |q -+ 1| past which a transport is indecisive


@dataclass(frozen=True)
class PeriodData:
    omega1: np.ndarray  # g x g, first kind over alpha (half periods)
    omega2: np.ndarray  # first kind over beta
    eta1: np.ndarray    # second kind over alpha
    eta2: np.ndarray    # second kind over beta
    riemann: np.ndarray  # omega1^{-1} omega2
    legendre_residual: float
    error_estimate: float
    chain: np.ndarray     # e_0, ..., e_2g of ``build_cycles``
    segments: np.ndarray  # g x 2g, first kind over chain segments (e_k, e_{k+1})
    transport_margin: float  # worst |q -/+ 1| of the sheet transports

    @property
    def genus(self) -> int:
        return self.omega1.shape[0]

    def lattice_matrix(self) -> np.ndarray:
        """Real 2g x 2g matrix whose columns generate the lattice; built once, read-only."""
        return self._lattice[0]

    def lattice_inverse(self) -> np.ndarray:
        """The inverse of ``lattice_matrix()``; built once beside it, read-only."""
        return self._lattice[1]

    @cached_property
    def _lattice(self) -> tuple:
        gens = np.hstack([2.0 * self.omega1, 2.0 * self.omega2])
        mat = np.vstack([gens.real, gens.imag])
        inv = np.linalg.inv(mat)
        mat.flags.writeable = inv.flags.writeable = False
        return mat, inv


def second_kind_numerator(curve: HyperellipticCurve, j: int) -> np.ndarray:
    """Numerator polynomial of the second-kind form, ascending coefficients."""
    g = curve.genus
    if not 1 <= j <= g:
        raise ValueError(f"form index {j} outside 1..{g}")
    coeffs = np.zeros(2 * g - j + 1, dtype=complex)
    for k in range(j, 2 * g - j + 1):
        coeffs[k] = (k + 1 - j) * curve.lam_at(k + 1 + j)
    return coeffs


def _relative_clearance(chains: np.ndarray) -> np.ndarray:
    """Per row, min of dist(e_j, (e_k, e_{k+1})) / |e_{k+1} - e_k| over j != k, k+1."""
    a = chains[:, :-1, None]
    ab = chains[:, 1:, None] - a
    rel = (chains[:, None, :] - a) / ab  # e_j in the frame where seg_k is [0, 1]
    dist = np.abs(rel - np.clip(rel.real, 0.0, 1.0))
    k = np.arange(chains.shape[1] - 1)
    dist[:, k, k] = dist[:, k, k + 1] = np.inf
    return dist.min(axis=(1, 2))


def build_cycles(curve: HyperellipticCurve) -> np.ndarray:
    """The chain e_0, ..., e_{2g} of the canonical basis.

    The sorted branch points, if their relative clearance is at least
    CHAIN_CLEARANCE; else the order of greatest clearance of all (2g+1)!,
    and PathThroughBranchPoint if that is below MIN_CLEARANCE. With seg_k
    the loop around the segment (e_k, e_{k+1}), alpha_j is seg_{2j} and
    beta_j the sum of seg_{2k+1} for k = j..g-1, a loop around
    {e_{2j+1}, ..., e_{2g}}.
    """
    e = curve.branch_points.copy()
    if _relative_clearance(e[None])[0] >= CHAIN_CLEARANCE:
        return e
    orders = e[np.array(list(itertools.permutations(range(e.size))))]
    clearance = _relative_clearance(orders)
    best = int(np.argmax(clearance))
    if clearance[best] < MIN_CLEARANCE:
        raise PathThroughBranchPoint(f"no chain clears its branch points by {MIN_CLEARANCE}")
    return orders[best]


def _continuous_sqrt(values: np.ndarray, anchor_index: int, anchor: complex) -> np.ndarray:
    """Square roots of ``values`` continuous along the array.

    The branch at ``anchor_index`` is taken nearest to ``anchor``. Going
    outward from it in both directions, the branch flips between neighbours
    whose roots are farther apart than their negatives (nearest-value
    continuation).
    """
    root = np.sqrt(values.astype(complex))
    k = anchor_index
    if abs(-root[k] - anchor) < abs(root[k] - anchor):
        root[k] = -root[k]
    step = np.where(np.abs(root[1:] - root[:-1]) > np.abs(root[1:] + root[:-1]), -1, 1)
    sign = np.ones(root.size, dtype=int)
    sign[k + 1:] = np.cumprod(step[k:])
    sign[:k] = np.cumprod(step[:k][::-1])[::-1]
    return np.where(sign < 0, -root, root)


def _segment_integrals(e: np.ndarray, numerators, n_nodes: int) -> np.ndarray:
    """Open-segment integrals of p(x) dx / (2 y_ref), row p, column k for (e_k, e_{k+1}).

    y_ref on segment k is the reference branch i * h * sin(theta) * sqrt(R)
    with the principal square root of R at the segment midpoint, R being f
    with the two endpoint factors removed. One array pass covers every
    segment; the square roots are continued one segment row at a time.
    """
    mid = 0.5 * (e[:-1] + e[1:])
    h = 0.5 * (e[1:] - e[:-1])
    theta = (np.arange(n_nodes) + 0.5) * np.pi / n_nodes
    x = mid[:, None] + h[:, None] * np.cos(theta)
    others = np.array([np.delete(e, [k, k + 1]) for k in range(mid.size)])
    r = np.prod(x[:, :, None] - others[:, None, :], axis=2)
    sqrt_r = np.array([
        _continuous_sqrt(r[k], n_nodes // 2, np.sqrt(complex(np.prod(mid[k] - others[k]))))
        for k in range(mid.size)])
    weight = np.pi / n_nodes
    return np.array([np.sum(polyval(p, x) / (2j * sqrt_r), axis=1) * weight
                     for p in numerators])


def _continue_y(curve: HyperellipticCurve, z0: complex, z1: complex,
                y0: complex, min_dist_fn) -> complex:
    """Continue y = sqrt(f) from z0 (value y0) to z1 along a straight segment.

    The package no longer steps y (``_transport_signs`` is in closed form).
    It is kept as that sign's test oracle and as a counted entry of
    ``perfbench/spans.py``, whose tests fail while an entry names a missing
    function; it goes when a benchmark-only change drops the entry.
    """
    y = y0
    z = z0
    total = abs(z1 - z0)
    if total == 0:
        return y
    direction = (z1 - z0) / total
    s = 0.0
    guard = 0
    while s < total:
        step = max(min(0.25 * min_dist_fn(z), total - s), 1e-3 * total)
        z_next = z0 + (s + step) * direction
        y_plus = np.sqrt(complex(curve.f(z_next)))
        d_plus, d_minus = abs(y_plus - y), abs(y_plus + y)
        while min(d_plus, d_minus) > 0.5 * max(d_plus, d_minus) and step > 1e-12 * total:
            step *= 0.5
            z_next = z0 + (s + step) * direction
            y_plus = np.sqrt(complex(curve.f(z_next)))
            d_plus, d_minus = abs(y_plus - y), abs(y_plus + y)
        y = y_plus if d_plus <= d_minus else -y_plus
        s += step
        z = z_next
        guard += 1
        if guard > 100000:
            raise PathThroughBranchPoint("analytic continuation stalled")
    return y


def _transport_paths(e: np.ndarray) -> np.ndarray:
    """Row k: the polygon from the midpoint of segment k to that of k+1.

    Along segment k to radius ARC_RADIUS min(half spans, clearance) of the
    shared branch point, clockwise on that circle from -u_in to u_out (the
    directions of travel) in ARC_CHORDS chords, so left of it relative to
    travel, then along segment k+1. No other branch point is on the way.
    """
    steps = e[1:] - e[:-1]
    lengths = np.abs(steps)
    apart = np.abs(e[:, None] - e[None, :]) + np.diag(np.full(e.size, np.inf))
    radius = ARC_RADIUS * np.minimum(0.5 * np.minimum(lengths[:-1], lengths[1:]),
                                     apart.min(axis=1)[1:-1])
    u_in, u_out = steps[:-1] / lengths[:-1], steps[1:] / lengths[1:]
    sweep = np.pi - np.angle(u_out / u_in)
    arc = e[1:-1, None] - (radius * u_in)[:, None] * np.exp(
        -1j * np.multiply.outer(sweep, np.arange(ARC_CHORDS + 1) / ARC_CHORDS))
    mids = 0.5 * (e[:-1] + e[1:])
    return np.concatenate([mids[:-1, None], arc, mids[1:, None]], axis=1)


def _transport_quotients(e: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """y_ref of segment k (``_segment_integrals``) continued along path k, over y_ref of k+1.

    Along a polygon z_0 .. z_n, y(z_n) / y(z_0) = prod_j |z_n - e_j|^(1/2) /
    |z_0 - e_j|^(1/2) exp(i/2 sum_j sum_p arg((z_{p+1} - e_j) / (z_p - e_j))),
    exactly: a straight piece that misses e_j subtends less than pi at it.
    A vertex on a branch point or a non-finite q raises PathThroughBranchPoint.
    """
    mids = 0.5 * (e[:-1] + e[1:])
    at_mids = mids[:, None] - e[None, :]
    k = np.arange(mids.size)
    at_mids[k, k] = at_mids[k, k + 1] = 1.0  # the endpoint factors are not in R
    y_ref = 1j * (0.5 * (e[1:] - e[:-1])) * np.sqrt(np.prod(at_mids, axis=1))
    w = paths[:, :, None] - e[None, None, :]
    if (w == 0).any():
        raise PathThroughBranchPoint("a sheet-transport vertex lies on a branch point")
    with np.errstate(all="ignore"):  # a non-finite q raises below
        winding = np.angle(w[:, 1:] / w[:, :-1]).sum(axis=(1, 2))
        modulus = np.sqrt(np.prod(np.abs(w[:, -1] / w[:, 0]), axis=1))
        q = y_ref[:-1] * modulus * np.exp(0.5j * winding) / y_ref[1:]
    if not np.isfinite(q).all():
        raise PathThroughBranchPoint("a sheet-transport quotient is not finite")
    return q


def _transport_signs(e: np.ndarray) -> tuple:
    """tau_k, the +-1 nearest q of ``_transport_quotients``, and the margin max |q - tau_k|.

    A q with min(|q - 1|, |q + 1|) above DECISION_RATIO of the max raises
    PathThroughBranchPoint.
    """
    q = _transport_quotients(e, _transport_paths(e))
    same, flip = np.abs(q - 1.0), np.abs(q + 1.0)
    near = np.minimum(same, flip)
    indecisive = near > DECISION_RATIO * np.maximum(same, flip)
    if indecisive.any():
        raise PathThroughBranchPoint(
            f"indecisive sheet transport across branch point {np.argmax(indecisive) + 1}")
    return np.where(same < flip, 1.0, -1.0), float(near.max())


def _refine(level, n: int, bound: float, n_max: int):
    """The node-doubling ladder of the period quadrature: level(n), level(2n), ...

    ``level(n)`` returns a tuple led by an array of sums. Returns the first
    finer output whose sums differ from the previous ones by <= bound (never
    NaN), and that difference; raises QuadratureNonConvergence past n_max.
    """
    prev = level(n)
    while True:
        n *= 2
        cur = level(n)
        err = float(np.max(np.abs(cur[0] - prev[0])))
        if err <= bound:
            return cur, err
        if n >= n_max:
            raise QuadratureNonConvergence(
                f"quadrature stuck at difference {err:.3e} with {n} nodes "
                f"(bound {bound:.3e})")
        prev = cur


def legendre_residual(pd: PeriodData) -> float:
    """Max-norm defect of the generalized Legendre relation."""
    g = pd.genus
    m = np.block([[pd.omega1, pd.omega2], [pd.eta1, pd.eta2]])
    j = np.block([[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]])
    return float(np.max(np.abs(m @ j @ m.T - (0.5j * np.pi) * j)))


def compute_periods(curve: HyperellipticCurve) -> PeriodData:
    """Certified half-period matrices of the first and second kind.

    Node counts double from BASE_NODES until two levels agree (``_refine``).
    The result is normalized so the (1, 1) entry of the first alpha period
    has positive real part (or positive imaginary part when the real part
    vanishes); this is a global sign convention only. ``segments`` keeps the
    first-kind integrals over the chain segments that omega1 and omega2 are
    assembled from, on the same global sheet and with the same sign.
    """
    e = build_cycles(curve)
    g = curve.genus
    numerators = [np.array([0.0] * (i - 1) + [1.0], dtype=complex)
                  for i in range(1, g + 1)]
    numerators += [second_kind_numerator(curve, j) for j in range(1, g + 1)]

    def level(n_nodes):
        return (_segment_integrals(e, numerators, n_nodes),)

    (cur,), err = _refine(level, BASE_NODES, AGREE_TOL * curve.scale, MAX_NODES)
    transports, margin = _transport_signs(e)
    glob = cur * np.concatenate([[1.0], np.cumprod(transports)])[None, :]
    # the basis rule of build_cycles; contiguous, so that products with the
    # periods take the numpy paths (and bits) of contiguous operands
    alpha_mat = np.ascontiguousarray(glob[:, 0::2])
    beta_mat = np.ascontiguousarray(np.cumsum(glob[:, 1::2][:, ::-1], axis=1)[:, ::-1])
    omega1, eta1 = alpha_mat[:g], alpha_mat[g:]
    omega2, eta2 = beta_mat[:g], beta_mat[g:]
    segments = glob[:g]

    lead = omega1[0, 0]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        omega1, omega2, eta1, eta2 = -omega1, -omega2, -eta1, -eta2
        segments = -segments

    riemann = np.linalg.solve(omega1, omega2)
    pd = PeriodData(omega1, omega2, eta1, eta2, riemann, 0.0, err, e, segments, margin)
    res = legendre_residual(pd)
    pd = PeriodData(omega1, omega2, eta1, eta2, riemann, res, err, e, segments, margin)

    if res > CERTIFICATE_TOL:
        raise LegendreCertificateFailure(
            f"Legendre residual {res:.3e} above {CERTIFICATE_TOL:.1e}")
    sym = float(np.max(np.abs(riemann - riemann.T)))
    if sym > 1e-8:
        raise LegendreCertificateFailure(
            f"Riemann matrix asymmetry {sym:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (riemann.imag + riemann.imag.T))
    if np.min(eigs) <= 0:
        raise LegendreCertificateFailure(
            f"Im(Riemann matrix) not positive definite, eigenvalues {eigs}")
    return pd
