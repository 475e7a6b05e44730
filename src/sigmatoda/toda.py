"""Exact Toda lattice solutions from sigma functions, and their Lax data.

A frame fixes a base point v1 on the curve, the lattice step c = 2 * (Abel
image of v1), a generic offset u0, and the flow direction with components
x1'^(i-1). Site n at time t lives at u = u0 + n c + t * direction. The site
potential is V(u) = sum wp_ij(u) x1'^(i+j-2) and the exact solutions are
checked through two-sided residuals of the second-difference equation, its
bilinear (Hirota) form, the two-time variant, and the Flaschka equations of
motion. Every derivative in the lattice checks is exact, and every check
reads sigma along the flow direction only: one stacked theta pass per frame
and time gives each site's sigma, its first and second derivatives along
the direction, and the theta moments from which the time derivatives of
log(V - V_c) follow, with no finite difference and no pass of their own.
The pass fills the frame's window at that time: the sites asked for and
their neighbours, which hold every check's stencil, and on a periodic frame
the sites 1..N+2 of its state (``site_jets``), read once for the state. Its
characteristic polynomial is built on Python scalars (``char_poly``).

Flaschka pairs are indexed so the standard equations hold:

    d a_k / dt = a_k (b_{k+1} - b_k),   d b_k / dt = a_k - a_{k-1},

with a_k = sigma^(k+2) sigma^(k) / (sigma^(k+1)^2 sigma_flat(c)^2) and
b_k = zeta^(k+1) - zeta^(k) - zeta_c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import CurvePoint, baker_f2, f12
from .errors import ConfluentInput, NonFiniteValue, worst_of
from .polyutil import as_poly, polyadd, polymul, sorted_roots, trim
from .sigma import (
    SigmaContext,
    _bound,
    _cumulant_potential,
    _guarded,
    _log_gap,
    abel_map,
    quasi_period,
    sigma_jet2,
)


def direction_vector(xp: complex, g: int) -> np.ndarray:
    return np.array([xp**i for i in range(g)], dtype=complex)


@dataclass(frozen=True)
class TodaFrame:
    ctx: SigmaContext
    v1: CurvePoint
    c: np.ndarray
    u0: np.ndarray
    sigma_flat_c: complex
    v_c: complex
    zeta_c: complex
    direction: np.ndarray = field(repr=False)
    periodic: int | None = None
    # sigma 2-jets along the direction of the window of sites at one time,
    # {t: {n: jet}}; a call at another time drops them (see site_jets)
    _site_jets: dict = field(default_factory=dict, init=False, compare=False,
                             repr=False)

    @property
    def genus(self) -> int:
        return self.ctx.genus

    @cached_property
    def curvature(self) -> complex:
        """d.kappa.d along the frame's direction (``sigma._Bound.curvature``)."""
        return _bound(self.ctx, 4, self.direction, self.direction).curvature


def toda_frame(ctx: SigmaContext, v1: CurvePoint, u0=None,
               rng: np.random.Generator | None = None,
               periodic: int | None = None) -> TodaFrame:
    """Frame for the sigma-function Toda solution stepped by c = 2 abel(v1)."""
    from .curves import random_curve_points

    g = ctx.genus
    c = 2.0 * abel_map(ctx, [v1]).u
    if u0 is None:
        rng = rng or np.random.default_rng(2024)
        u0 = abel_map(ctx, random_curve_points(ctx.curve, rng, g)).u
    u0 = np.atleast_1d(np.asarray(u0, dtype=complex))
    d = direction_vector(v1.x, g)
    # sigma_flat is sigma at genus <= 2: one 2-jet along d at c gives it and
    # zeta_c = D sigma / sigma
    s_c, ds_c, *_, scale, _ = sigma_jet2(ctx, c, d, d)
    s_flat_c = _guarded(s_c, scale, "the step c (sigma_flat)")
    return TodaFrame(ctx, v1, c, u0, complex(s_flat_c), complex(f12(ctx.curve, v1.x)),
                     complex(ds_c / s_flat_c), d, periodic)


def site_u(frame: TodaFrame, n: int, t: complex = 0.0) -> np.ndarray:
    return frame.u0 + n * frame.c + t * frame.direction


def site_jets(frame: TodaFrame, sites, t: complex = 0.0) -> list:
    """The 2-jets along the frame's direction at each site n of ``sites``, a sequence.

    Each is ``sigma_jet2`` with d1 = d2 = the direction: (sigma, D sigma,
    D sigma, D^2 sigma, |env| L1, theta moments), Python scalars. The frame
    keeps the jets of one time, {t: {n: jet}}, so a hit is one dict read per
    site; a call at another time drops them. A call that misses a site fills
    the frame's window at t in one stacked theta pass: every site asked for
    with its neighbours n - 1 and n + 1 (the union, not the hull, so a sparse
    call stays small), and on a periodic frame (``frame.periodic = N``) the
    sites 1..N+2 that its state reads. The pass sums the window's sites the
    frame lacks, their u in one expression with the bits of ``site_u``, each
    jet with the bits of its own call.
    """
    t = complex(t)
    jets = frame._site_jets.get(t)
    if jets is None:
        frame._site_jets.clear()
        jets = frame._site_jets[t] = {}
    try:
        return [jets[n] for n in sites]
    except KeyError:
        window = {m for n in sites for m in (n - 1, n, n + 1)}
        if frame.periodic is not None:
            window.update(range(1, frame.periodic + 3))
        missing = sorted(window.difference(jets))
        d = frame.direction
        u = frame.u0 + np.multiply.outer(missing, frame.c) + t * d
        jets.update(zip(missing, sigma_jet2(frame.ctx, u, d, d)))
    return [jets[n] for n in sites]


def _potential(jet, curvature: complex, where) -> complex:
    """-D1 D2 log sigma from a ``sigma_jet2`` tuple at one point.

    ``curvature`` is d1.kappa.d2 (``TodaFrame.curvature`` along d); the value
    is the cumulant form of ``sigma._cumulant_potential``, after the pole
    test on sigma.
    """
    sig, scale, moments = jet[0], jet[4], jet[5]
    _guarded(sig, scale, where)
    return _cumulant_potential(curvature, moments)


def V(frame: TodaFrame, u) -> complex:
    """Site potential sum wp_ij(u) x1'^(i+j-2), equal to -D1^2 log sigma."""
    d = frame.direction
    return _potential(sigma_jet2(frame.ctx, u, d, d), frame.curvature, "V")


def toda_residual_1d(frame: TodaFrame, n: int, t: complex = 0.0) -> float:
    """Second-difference Toda residual at site n along the flow direction.

    Both sides read the site jets of n-1, n and n+1: the right side their
    potentials, and the exact left side -(d/dt)^2 log(V - V_c) the theta
    moments of site n (``sigma._log_gap``), so the check takes no theta pass
    of its own. A vanishing V - V_c at site n raises VanishingGap.
    """
    return _lattice_residual(site_jets(frame, range(n - 1, n + 2), t),
                             frame.curvature, frame.v_c, n)


def _lattice_residual(jets, curvature, c, n: int) -> float:
    """Residual of -D1 D2 log(v - c) = v(n+1) - 2 v(n) + v(n-1) from the jets of n-1..n+1.

    ``curvature`` is d1.kappa.d2 for the jets' directions.
    """
    v_lo, v_n, v_hi = (_potential(jet, curvature, f"v at site {n - 1 + i}")
                       for i, jet in enumerate(jets))
    lhs = _log_gap(curvature, jets[1][5], c, f"site {n}")[1]
    rhs = v_hi - 2 * v_n + v_lo
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def frame_well_conditioned(frame: TodaFrame, n_range, t: complex = 0.0,
                           gap_floor: float = 1e-2) -> bool:
    """True when every site keeps clear of the theta divisor and V != V_c.

    Residuals lose accuracy near either degeneracy: sigma quotients near a
    zero of sigma, and the exact lattice left side, which divides by
    (V - V_c)^2, near a zero of the gap. Harnesses resample the base offset
    until this holds.
    """
    for jet in site_jets(frame, n_range, t):
        if abs(jet[0]) < 1e-3 * jet[4]:
            return False
        gap = abs(_potential(jet, frame.curvature, "a conditioned site") - frame.v_c)
        if gap < gap_floor * max(1.0, abs(frame.v_c)):
            return False
    return True


def hirota_residual(frame: TodaFrame, n: int, t: complex = 0.0) -> float:
    """Bilinear form of the lattice equation, all derivatives exact."""
    lo, (sig, d_sig, _, dd_sig, *_), hi = site_jets(frame, range(n - 1, n + 2), t)
    sc2 = frame.sigma_flat_c**2
    t1 = sig * sc2 * dd_sig
    t2 = -sc2 * d_sig**2
    t3 = frame.v_c * sc2 * sig**2
    t4 = -hi[0] * lo[0]
    total = t1 + t2 + t3 + t4
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4), 1e-300)
    return abs(total) / scale


def toda2d_residual(ctx: SigmaContext, v1: CurvePoint, v2: CurvePoint,
                    n: int, t1: complex = 0.0, t2: complex = 0.0,
                    u0=None, rng: np.random.Generator | None = None) -> float:
    """Two-time lattice residual with step c = abel(v1) + abel(v2).

    With v = -D1 D2 log sigma along d1 and d2, it checks
    -D1 D2 log(v - v_c) = v(n+1) - 2 v(n) + v(n-1). The three sites take one
    stacked ``sigma_jet2`` pass along d1 and d2; the left side is exact, from
    the theta moments of site n (``sigma._log_gap``).
    """
    from .curves import random_curve_points

    if abs(v1.x - v2.x) < 1e-10 * ctx.curve.scale:
        raise ConfluentInput("two-time step needs distinct base points")
    g = ctx.genus
    if u0 is None:
        rng = rng or np.random.default_rng(2025)
        u0 = abel_map(ctx, random_curve_points(ctx.curve, rng, g)).u
    c = abel_map(ctx, [v1, v2]).u
    d1 = direction_vector(v1.x, g)
    d2 = direction_vector(v2.x, g)
    # two-point kernel; its confluent limit is f12, matching the one-time V_c
    vhat_c = (baker_f2(ctx.curve, v1.x, v2.x) - 2 * v1.y * v2.y) \
        / (v1.x - v2.x) ** 2
    base = u0 + t1 * d1 + t2 * d2
    jets = sigma_jet2(ctx, np.array([base + k * c for k in (n - 1, n, n + 1)]), d1, d2)
    return _lattice_residual(jets, _bound(ctx, 4, d1, d2).curvature, vhat_c, n)


def flaschka(frame: TodaFrame, k: int, t: complex = 0.0) -> tuple[complex, complex]:
    """Flaschka pair (a_k, b_k) from sigma quotients.

    a_k couples sites k and k+1 (its sigma quotient reads sites k..k+2);
    b_k is the difference of directional zeta values at sites k+1 and k,
    shifted by the constant zeta_c of the frame.
    """
    return _flaschka_pairs(frame, range(k, k + 1), t)[k]


def _flaschka_pairs(frame: TodaFrame, ks: range, t: complex) -> dict:
    """Flaschka pairs by k in ks, from one read of the jets of their sites."""
    jets = site_jets(frame, range(ks.start, ks.stop + 2), t)
    pairs = {}
    for k, (s_k, d_k, _, _, scale_k, _), (s_k1, d_k1, _, _, scale_k1, _), (s_k2, *_) \
            in zip(ks, jets, jets[1:], jets[2:]):
        _guarded(s_k1, scale_k1, f"site {k + 1}")
        # s_k1 * s_k1, not s_k1**2, which raises an untyped OverflowError
        a_k = s_k2 * s_k / (s_k1 * s_k1 * frame.sigma_flat_c**2)
        _guarded(s_k, scale_k, f"zeta at site {k}")
        b_k = d_k1 / s_k1 - d_k / s_k - frame.zeta_c
        if not (cmath.isfinite(a_k) and cmath.isfinite(b_k)):
            raise NonFiniteValue(f"the Flaschka pair at k = {k}, t = {t} is not finite")
        pairs[k] = complex(a_k), complex(b_k)
    return pairs


def flaschka_wp_path(frame: TodaFrame, k: int, t: complex = 0.0) -> complex:
    """a_k recomputed as the potential difference V_c - V at site k+1."""
    jet = site_jets(frame, [k + 1], t)[0]
    return complex(frame.v_c - _potential(jet, frame.curvature, f"V at site {k + 1}"))


def flaschka_ode_residual(frame: TodaFrame, n_window: int, t: complex = 0.0) -> float:
    """Max residual of the Flaschka equations of motion over a site window.

    d/dt is a Richardson central difference at steps FD_STEP and FD_STEP / 2.
    The pairs are taken one time at a time, so each time's site jets take
    one stacked theta pass for the whole window.
    """
    h = FD_STEP
    now = _flaschka_pairs(frame, range(-1, n_window + 1), t)
    lo, hi, lo2, hi2 = (_flaschka_pairs(frame, range(n_window), s)
                        for s in (t - h, t + h, t - h / 2, t + h / 2))
    worst = 0.0
    for k in range(n_window):
        a_k, b_k = now[k]
        a_km, b_k1 = now[k - 1][0], now[k + 1][1]

        def ddt(component):
            coarse = (hi[k][component] - lo[k][component]) / (2 * h)
            fine = (hi2[k][component] - lo2[k][component]) / h
            return (4 * fine - coarse) / 3

        res_a = abs(ddt(0) - a_k * (b_k1 - b_k)) / max(1.0, abs(a_k))
        res_b = abs(ddt(1) - (a_k - a_km)) / max(1.0, abs(a_k), abs(a_km))
        worst = worst_of(worst, res_a, res_b)
    return worst


@dataclass(frozen=True)
class TodaState:
    """Flaschka variables a_1..a_N, b_1..b_N of one lattice period.

    ``a`` and ``b`` are kept as read-only copies, so ``spectral``, built on
    its first read, stays the characteristic data of the state.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_sites(self) -> int:
        return self.a.size

    @cached_property
    def spectral(self) -> SpectralData:
        """``char_poly`` of the state, built once for every check that reads it."""
        return char_poly(self)


def toda_state(frame: TodaFrame, n_sites: int, t: complex = 0.0) -> TodaState:
    """The state (a_k, b_k), k = 1..N, from one read of the jets of sites 1..N+2."""
    a, b = zip(*_flaschka_pairs(frame, range(1, n_sites + 1), t).values())
    return TodaState(a, b)


def _lax_minus_z(state: TodaState, samples) -> np.ndarray:
    """L(w_hat) - z for each sample (z, w_hat): diagonal b - z, 1 above, a
    below, corners a_N / w_hat and w_hat, as one (S, N, N) stack."""
    n = state.n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    z, w_hat = np.array(samples, dtype=complex).T
    mat = np.zeros((z.size, n, n), dtype=complex)
    k = np.arange(n)
    mat[:, k, k] = state.b - z[:, None]
    mat[:, k[:-1], k[1:]] = 1.0
    mat[:, k[1:], k[:-1]] = state.a[:-1]
    mat[:, 0, n - 1] += state.a[n - 1] / w_hat
    mat[:, n - 1, 0] += w_hat
    return mat


@dataclass(frozen=True)
class SpectralData:
    """Characteristic polynomial data of the periodic Lax matrix.

    ``p_coeffs`` holds P(z) ascending with leading coefficient (-1)^N;
    ``invariants`` lists I_1..I_{N+1}.
    """

    p_coeffs: np.ndarray
    invariants: np.ndarray
    prod_a: complex

    @cached_property
    def weierstrass_z(self) -> np.ndarray:
        """The 2N branch values of w^2 = P(z)^2 - 4 prod(a), found on the first read."""
        p = self.p_coeffs
        disc = polyadd(polymul(p, p), as_poly([-4.0 * self.prod_a]))
        return sorted_roots(trim(disc))


def _tridiag_charpoly(b: list, a: list, lo: int, hi: int) -> list:
    """det of the tridiagonal block over sites lo..hi in z, ascending coeffs, on lists."""
    prev2, prev1 = [], [1.0 + 0.0j]
    for k in range(lo, hi + 1):
        cur = [b[k] * c for c in prev1] + [0.0j]
        for i, c in enumerate(prev1):
            cur[i + 1] -= c
        for i, c in enumerate(prev2):
            cur[i] -= a[k - 1] * c
        prev2, prev1 = prev1, cur
    return prev1


def _horner(p: list, z: complex) -> complex:
    """P(z) for ascending coefficients ``p``, a list, on Python scalars."""
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * z + c
    return acc


def char_poly(state: TodaState) -> SpectralData:
    """P(z) = det(block 1..N) - a_N det(block 2..N-1), for N >= 2 sites only,
    by the three-term recursion on Python scalars (for N + 1 coefficients an
    array per step costs more in numpy calls than in arithmetic), and the
    invariants; roots on demand."""
    n = state.n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    b, a = state.b.tolist(), state.a.tolist()
    p = _tridiag_charpoly(b, a, 0, n - 1)
    for i, c in enumerate(_tridiag_charpoly(b, a, 1, n - 2)):
        p[i] -= a[n - 1] * c
    prod_a = math.prod(a)
    invariants = [(-1.0) ** (n + k) * p[n - k] for k in range(1, n + 1)] + [prod_a]
    return SpectralData(np.array(p), np.array(invariants), prod_a)


FD_STEP = 1e-4  # the time step of flaschka_ode_residual
# samples of the two Lax checks, drawn in the order of one draw per sample
LAX_SAMPLES = tuple((complex(zr, zi), complex(wr, wi) + 2.0) for zr, zi, wr, wi
                    in np.random.default_rng(7).normal(size=(5, 4)).tolist())
SPECTRAL_Z = tuple(complex(zr, zi)
                   for zr, zi in np.random.default_rng(11).normal(size=(10, 2)).tolist())


def lax_det_residual(state: TodaState) -> float:
    """Check det(L - z) against P(z) + (-1)^(N-1) (w + prod(a)/w).

    The numpy determinants are the oracle for the scalar-built P; it holds
    for any (a, b), so it certifies the recursion, not the Toda flow.
    """
    data = state.spectral
    p, prod_a = data.p_coeffs.tolist(), data.prod_a
    sign = (-1.0) ** (state.n_sites - 1)
    dets = np.linalg.det(_lax_minus_z(state, LAX_SAMPLES)).tolist()
    worst = 0.0
    for det, (z, w_hat) in zip(dets, LAX_SAMPLES):
        model = _horner(p, z) + sign * (w_hat + prod_a / w_hat)
        worst = worst_of(worst, abs(det - model) / max(1.0, abs(det)))
    return worst


def spectral_morphism(state: TodaState):
    """Verify w^2 = P^2 - 4 prod(a) on curve samples; return (residual, data).

    Points (z, w_hat) on the spectral curve satisfy
    w_hat^2 - (-1)^N P(z) w_hat + prod(a) = 0, and w = 2 w_hat - (-1)^N P(z)
    squares to the degree-2N model whose 2N roots are ``data.weierstrass_z``,
    found only when read. w is that root, so the check holds for any (a, b):
    it certifies the branch choice, not the flow. P(z) is on Python scalars.
    """
    data = state.spectral
    p = data.p_coeffs.tolist()
    sign = (-1.0) ** state.n_sites
    worst = 0.0
    for z in SPECTRAL_Z:
        p_val = _horner(p, z)
        p_hat = sign * p_val
        disc = cmath.sqrt(p_hat**2 - 4.0 * data.prod_a)
        w_hat = 0.5 * (p_hat + disc)
        if abs(w_hat) < 1e-8:
            w_hat = 0.5 * (p_hat - disc)
        w = 2.0 * w_hat - p_hat
        target = p_val ** 2 - 4.0 * data.prod_a
        worst = worst_of(worst, abs(w**2 - target) / max(1.0, abs(target)))
    return worst, data


def invariant_drift(frame: TodaFrame, n_sites: int, t_samples) -> float:
    """Max relative drift of the invariants over the sampled times."""
    t_samples = list(t_samples)
    base = toda_state(frame, n_sites, t_samples[0]).spectral.invariants
    worst = 0.0
    for t in t_samples[1:]:
        cur = toda_state(frame, n_sites, t).spectral.invariants
        worst = worst_of(worst, float(np.max(np.abs(cur - base) / (1.0 + np.abs(base)))))
    return worst


def invariant_sigma_relations(frame: TodaFrame, n_sites: int,
                              t: complex = 0.0) -> dict:
    """Closed forms of I_1 and I_{N+1} in frame data, with both sides.

    The exact relations carry quasi-period corrections through the vector
    q = 2 eta1 l' + 2 eta2 l'' of the lattice vector l = N c:

        I_1 = -d . q - N zeta_c,
        I_{N+1} = sigma_flat(c)^(-2N) exp(-c . q).
    """
    if frame.periodic is None:
        raise ValueError("sigma-form invariants need a periodic frame")
    q = quasi_period(frame.ctx.periods, n_sites * frame.c, 1e-5)
    inv = toda_state(frame, n_sites, t).spectral.invariants
    i1_exact = -(frame.direction @ q) - n_sites * frame.zeta_c
    in1_exact = frame.sigma_flat_c ** (-2 * n_sites) * np.exp(-(frame.c @ q))
    return {
        "I1": complex(inv[0]),
        "I1_sigma": complex(i1_exact),
        "I1_plain": complex(n_sites * frame.zeta_c),
        "IN1": complex(inv[-1]),
        "IN1_sigma": complex(in1_exact),
        "IN1_plain": complex(frame.sigma_flat_c ** (-2 * n_sites)),
    }
