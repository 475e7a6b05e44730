"""Half-period matrices by contour integration over a canonical homology basis.

Branch points are chained in lexicographic order e_1, ..., e_{2g+1}. The
cycle alpha_j is a loop around the pair (e_{2j-1}, e_{2j}); beta_j is a loop
around the even set {e_{2j}, ..., e_{2g+1}}, realized as the sum of the pair
loops around (e_{2k}, e_{2k+1}) for k = j..g. A loop integral around a pair
equals twice the open-segment integral on a fixed branch of y, and the
branch is propagated between segments by analytic continuation through a
corridor passing on the left of the shared branch point.

The substitution x = midpoint + halfspan*cos(theta) absorbs the inverse
square-root endpoint singularities, so the midpoint rule in theta converges
spectrally. The generalized Legendre relation is computed as a certificate
on every result; a residual above tolerance signals a sheet-tracking error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve
from .errors import (
    BranchPointSingularity,
    LegendreCertificateFailure,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
)
from .polyutil import polyval


MAX_NODES = 4096  # period quadrature gives up beyond this many nodes
AGREE_TOL = 1e-11  # agreement of two node levels, per unit curve scale
CERTIFICATE_TOL = 1e-8  # bound on the Legendre residual


@dataclass(frozen=True)
class CycleBasis:
    """Chain encoding of the homology basis.

    ``alpha_pairs[j]`` and ``beta_chains[j]`` hold 0-based indices k of chain
    segments (e_k, e_{k+1}); a cycle is the sum of the pair loops around its
    segments.
    """

    branch_points: np.ndarray
    alpha_pairs: tuple
    beta_chains: tuple

    @property
    def genus(self) -> int:
        return len(self.alpha_pairs)

    def intersection_matrix(self) -> np.ndarray:
        """Pairing of the encoded cycles, computed combinatorially.

        Adjacent pair loops around (e_k, e_{k+1}) and (e_{k+1}, e_{k+2})
        meet once with sign +1; all other pairs are disjoint.
        """
        g = self.genus
        nseg = 2 * g
        skew = np.zeros((nseg, nseg), dtype=int)
        for k in range(nseg - 1):
            skew[k, k + 1] = 1
            skew[k + 1, k] = -1
        vecs = np.zeros((2 * g, nseg), dtype=int)
        for j, k in enumerate(self.alpha_pairs):
            vecs[j, k] = 1
        for j, chain in enumerate(self.beta_chains):
            for k in chain:
                vecs[g + j, k] = 1
        return vecs @ skew @ vecs.T


@dataclass(frozen=True)
class PeriodData:
    omega1: np.ndarray  # g x g, first kind over alpha (half periods)
    omega2: np.ndarray  # first kind over beta
    eta1: np.ndarray    # second kind over alpha
    eta2: np.ndarray    # second kind over beta
    riemann: np.ndarray  # omega1^{-1} omega2
    legendre_residual: float
    error_estimate: float

    @property
    def genus(self) -> int:
        return self.omega1.shape[0]

    def lattice_matrix(self) -> np.ndarray:
        """Real 2g x 2g matrix whose columns generate the period lattice."""
        gens = np.hstack([2.0 * self.omega1, 2.0 * self.omega2])
        return np.vstack([gens.real, gens.imag])


def first_kind_diff(curve: HyperellipticCurve, i: int, p: CurvePoint) -> complex:
    """Coefficient of dx in the holomorphic form x^{i-1} dx / (2y)."""
    if not 1 <= i <= curve.genus:
        raise ValueError(f"form index {i} outside 1..{curve.genus}")
    if p.at_infinity or p.y == 0:
        raise BranchPointSingularity("first kind differential needs y != 0")
    return p.x ** (i - 1) / (2.0 * p.y)


def second_kind_numerator(curve: HyperellipticCurve, j: int) -> np.ndarray:
    """Numerator polynomial of the second-kind form, ascending coefficients."""
    g = curve.genus
    if not 1 <= j <= g:
        raise ValueError(f"form index {j} outside 1..{g}")
    coeffs = np.zeros(2 * g - j + 1, dtype=complex)
    for k in range(j, 2 * g - j + 1):
        coeffs[k] = (k + 1 - j) * curve.lam_at(k + 1 + j)
    return coeffs


def second_kind_diff(curve: HyperellipticCurve, j: int, p: CurvePoint) -> complex:
    """Coefficient of dx in the second-kind form with a pole at infinity."""
    if p.at_infinity or p.y == 0:
        raise BranchPointSingularity("second kind differential needs y != 0")
    return polyval(second_kind_numerator(curve, j), p.x) / (2.0 * p.y)


def _point_segment_distance(z, a, b) -> float:
    ab = b - a
    t = np.clip(((z - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
    return abs(z - (a + t * ab))


def _chain_is_simple(e: np.ndarray, margin: float) -> bool:
    n = e.size
    for k in range(n - 1):
        for j in range(n):
            if j in (k, k + 1):
                continue
            if _point_segment_distance(e[j], e[k], e[k + 1]) < margin:
                return False
    return True


def build_cycles(curve: HyperellipticCurve) -> CycleBasis:
    """Deterministic canonical basis from the sorted branch points.

    Falls back to an angular ordering when the lexicographic chain passes
    too close to a branch point it does not end on.
    """
    e = curve.branch_points.copy()
    margin = 1e-6 * curve.scale
    if not _chain_is_simple(e, margin):
        center = np.mean(e)
        order = np.argsort(np.angle(e - center))
        e = e[order]
        start = int(np.lexsort((e.imag, e.real))[0])
        e = np.roll(e, -start)
        if not _chain_is_simple(e, margin):
            raise PathThroughBranchPoint(
                "no simple branch-point chain found for cycle construction")
    g = curve.genus
    alpha = tuple(2 * j for j in range(g))
    beta = tuple(tuple(2 * k + 1 for k in range(j, g)) for j in range(g))
    basis = CycleBasis(e, alpha, beta)
    inter = basis.intersection_matrix()
    expected = np.block([[np.zeros((g, g), int), np.eye(g, dtype=int)],
                         [-np.eye(g, dtype=int), np.zeros((g, g), int)]])
    assert np.array_equal(inter, expected)
    return basis


def _other_roots(e: np.ndarray, k: int) -> np.ndarray:
    return np.delete(e, [k, k + 1])


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


def _segment_integrals(e: np.ndarray, k: int, numerators, n_nodes: int) -> np.ndarray:
    """Open-segment integrals of p(x) dx / (2 y_ref) from e_k to e_{k+1}.

    y_ref is the reference branch i * h * sin(theta) * sqrt(R) with the
    principal square root of R at the segment midpoint, R being f with the
    two endpoint factors removed.
    """
    a, b = e[k], e[k + 1]
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    theta = (np.arange(n_nodes) + 0.5) * np.pi / n_nodes
    x = mid + h * np.cos(theta)
    others = _other_roots(e, k)
    r = np.prod(x[:, None] - others[None, :], axis=1)
    anchor_idx = n_nodes // 2
    anchor = np.sqrt(complex(np.prod(mid - others)))
    sqrt_r = _continuous_sqrt(r, anchor_idx, anchor)
    weight = np.pi / n_nodes
    return np.array([
        np.sum(polyval(p, x) / (2j * sqrt_r)) * weight for p in numerators
    ])


def _reference_mid_y(e: np.ndarray, k: int) -> complex:
    a, b = e[k], e[k + 1]
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return 1j * h * np.sqrt(complex(np.prod(mid - _other_roots(e, k))))


def _continue_y(curve: HyperellipticCurve, z0: complex, z1: complex,
                y0: complex, min_dist_fn) -> complex:
    """Continue y = sqrt(f) from z0 (value y0) to z1 along a straight segment."""
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


def _transport_signs(curve: HyperellipticCurve, e: np.ndarray) -> np.ndarray:
    """Sign relating the reference branch of segment k+1 to that of segment k.

    Continuation runs through a corridor waypoint on the left of the shared
    branch point, which fixes the homotopy class of the connection.
    """
    n_seg = e.size - 1
    mids = 0.5 * (e[:-1] + e[1:])
    spans = 0.5 * np.abs(e[1:] - e[:-1])

    def min_dist(z):
        return float(np.min(np.abs(z - e)))

    taus = np.zeros(n_seg - 1)
    for k in range(n_seg - 1):
        shared = e[k + 1]
        others = np.delete(e, k + 1)
        clearance = float(np.min(np.abs(shared - others)))
        delta = 0.3 * min(spans[k], spans[k + 1], clearance)
        direction = mids[k + 1] - mids[k]
        waypoint = shared + 1j * delta * direction / abs(direction)
        y = _reference_mid_y(e, k)
        y = _continue_y(curve, mids[k], waypoint, y, min_dist)
        y = _continue_y(curve, waypoint, mids[k + 1], y, min_dist)
        target = _reference_mid_y(e, k + 1)
        same, flip = abs(y - target), abs(y + target)
        if min(same, flip) > 0.2 * max(same, flip):
            raise PathThroughBranchPoint(
                f"indecisive sheet transport across branch point {k + 1}")
        taus[k] = 1.0 if same < flip else -1.0
    return taus


def _assemble(cycles: CycleBasis, seg_ints: np.ndarray, transports: np.ndarray,
              g: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-period matrices over alpha and beta from global-sheet segments."""
    cumulative = np.concatenate([[1.0], np.cumprod(transports)])
    glob = seg_ints * cumulative[None, :]
    n_forms = seg_ints.shape[0]
    alpha_mat = np.zeros((n_forms, g), dtype=complex)
    beta_mat = np.zeros((n_forms, g), dtype=complex)
    for j in range(g):
        alpha_mat[:, j] = glob[:, cycles.alpha_pairs[j]]
        beta_mat[:, j] = np.sum(glob[:, list(cycles.beta_chains[j])], axis=1)
    return alpha_mat, beta_mat


def _refine(level, n: int, bound: float, n_max: int):
    """The quadrature ladder of periods and the Abel map: level(n), level(2n), ...

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


def compute_periods(curve: HyperellipticCurve, base_nodes: int = 256) -> PeriodData:
    """Certified half-period matrices of the first and second kind.

    Node counts double from ``base_nodes`` until two levels agree (``_refine``).
    The result is normalized so the (1, 1) entry of the first alpha period
    has positive real part (or positive imaginary part when the real part
    vanishes); this is a global sign convention only.
    """
    cycles = build_cycles(curve)
    e = cycles.branch_points
    g = curve.genus
    numerators = [np.array([0.0] * (i - 1) + [1.0], dtype=complex)
                  for i in range(1, g + 1)]
    numerators += [second_kind_numerator(curve, j) for j in range(1, g + 1)]

    def level(n_nodes):
        return (np.array([
            _segment_integrals(e, k, numerators, n_nodes) for k in range(2 * g)
        ]).T,)

    (cur,), err = _refine(level, base_nodes, AGREE_TOL * curve.scale, MAX_NODES)
    transports = _transport_signs(curve, e)
    alpha_mat, beta_mat = _assemble(cycles, cur, transports, g)
    omega1, eta1 = alpha_mat[:g], alpha_mat[g:]
    omega2, eta2 = beta_mat[:g], beta_mat[g:]

    lead = omega1[0, 0]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        omega1, omega2, eta1, eta2 = -omega1, -omega2, -eta1, -eta2

    riemann = np.linalg.solve(omega1, omega2)
    pd = PeriodData(omega1, omega2, eta1, eta2, riemann, 0.0, err)
    res = legendre_residual(pd)
    pd = PeriodData(omega1, omega2, eta1, eta2, riemann, res, err)

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
