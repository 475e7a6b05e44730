"""Exact Toda lattice solutions from sigma functions, and their Lax data.

A frame fixes a base point v1 on the curve, the lattice step c = 2 * (Abel
image of v1), a generic offset u0, and the flow direction with components
x1'^(i-1). Site n at time t lives at u = u0 + n c + t * direction. The site
potential is V(u) = sum wp_ij(u) x1'^(i+j-2) and the exact solutions are
checked through two-sided residuals of the second-difference equation, its
bilinear (Hirota) form, the two-time variant, and the Flaschka equations of
motion.

Flaschka pairs are indexed so the standard equations hold:

    d a_k / dt = a_k (b_{k+1} - b_k),   d b_k / dt = a_k - a_{k-1},

with a_k = sigma^(k+2) sigma^(k) / (sigma^(k+1)^2 sigma_flat(c)^2) and
b_k = zeta^(k+1) - zeta^(k) - zeta_c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import CurvePoint, baker_f2, f12
from .errors import ConfluentInput
from .polyutil import as_poly, polyadd, polymul, polyval, sorted_roots, trim
from .sigma import (
    SigmaContext,
    _guarded,
    _jet,
    _partial,
    abel_map,
    natural_index_set,
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
    periodic: int | None = None
    sigma_flat_c: complex = 0.0
    v_c: complex = 0.0
    zeta_c: complex = 0.0
    direction: np.ndarray = field(default=None, repr=False)
    # sigma 2-jets of the sites at one time, keyed (t, n); see site_jet
    _site_jets: dict = field(default_factory=dict, init=False, compare=False,
                             repr=False)

    @property
    def genus(self) -> int:
        return self.ctx.genus


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
    # 0-based labels of sigma_flat; one jet at c serves it and its gradient
    flat = tuple(i - 1 for i in natural_index_set(g, 2))
    jet = _jet(ctx, c, len(flat) + 1)
    s_flat_c = _guarded(ctx, _partial(ctx, jet, flat), abs(jet[0]) * jet[2],
                        "the step c (sigma_flat)")
    d = direction_vector(v1.x, g)
    zc = sum(v1.x ** (i - 1) * _partial(ctx, jet, flat + (i - 1,))
             for i in range(1, g + 1)) / s_flat_c
    return TodaFrame(ctx, v1, c, u0, periodic, complex(s_flat_c),
                     complex(f12(ctx.curve, v1.x)), complex(zc), d)


def site_u(frame: TodaFrame, n: int, t: complex = 0.0) -> np.ndarray:
    return frame.u0 + n * frame.c + t * frame.direction


def site_jet(frame: TodaFrame, n: int, t: complex = 0.0):
    """(sigma, gradient, Hessian, |env| L1) at site n and time t.

    The frame keeps the jets of the sites of one time, so every check at
    (n, t) shares one theta pass per site; a call at another time drops them.
    """
    memo = frame._site_jets
    key = (complex(t), n)
    jet = memo.get(key)
    if jet is None:
        if memo and next(iter(memo))[0] != key[0]:
            memo.clear()
        jet = memo[key] = sigma_jet2(frame.ctx, site_u(frame, n, t))
    return jet


def _potential(frame: TodaFrame, jet, where) -> complex:
    """-D^2 log sigma along the frame's direction, from sigma's 2-jet at one point."""
    sig, grad, hess, scale = jet
    _guarded(frame.ctx, sig, scale, where)
    d = frame.direction
    first = (d @ grad) / sig
    return first**2 - (d @ hess @ d) / sig


def V(frame: TodaFrame, u) -> complex:
    """Site potential sum wp_ij(u) x1'^(i+j-2), equal to -D1^2 log sigma."""
    return _potential(frame, sigma_jet2(frame.ctx, u), "V")


def _site_V(frame: TodaFrame, n: int, t: complex) -> complex:
    """V at site n and time t, read through ``site_jet``."""
    return _potential(frame, site_jet(frame, n, t), f"V at site {n}")


def log_second_difference(product, gap0: complex, h: float) -> complex:
    """Central second difference of log gap at step h.

    ``product(h)`` is gap(h) * gap(-h) and ``gap0`` is gap(0); the
    difference is one log of their ratio, so branch cuts cancel.
    """
    return np.log(product(h) / gap0**2) / h**2


def lattice_lhs(product, gap0: complex, h: float) -> complex:
    """-(d/dt)^2 log gap: the second difference with one Richardson pass."""
    return -(4.0 * log_second_difference(product, gap0, h / 2)
             - log_second_difference(product, gap0, h)) / 3.0


def toda_residual_1d(frame: TodaFrame, n: int, t: complex = 0.0) -> float:
    """Second-difference Toda residual at site n along the flow direction.

    The time derivative is ``lattice_lhs`` of V - V_c at step 1e-3. Steps
    much below that hit the double-precision roundoff floor of the ratio,
    so the extrapolated truncation error is favored over a smaller raw step.
    """
    u_n = site_u(frame, n, t)
    vc = frame.v_c
    v_n = _site_V(frame, n, t)

    def product(h):
        return (V(frame, u_n + h * frame.direction) - vc) \
            * (V(frame, u_n - h * frame.direction) - vc)

    lhs = lattice_lhs(product, v_n - vc, 1e-3)
    rhs = _site_V(frame, n + 1, t) - 2 * v_n + _site_V(frame, n - 1, t)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def frame_well_conditioned(frame: TodaFrame, n_range, t: complex = 0.0,
                           gap_floor: float = 1e-2) -> bool:
    """True when every site keeps clear of the theta divisor and V != V_c.

    Residual evaluators lose finite-difference accuracy near either
    degeneracy; harnesses resample the base offset until this holds.
    """
    for n in n_range:
        jet = site_jet(frame, n, t)
        if abs(jet[0]) < 1e-3 * jet[3]:
            return False
        gap = abs(_potential(frame, jet, "a conditioned site") - frame.v_c)
        if gap < gap_floor * max(1.0, abs(frame.v_c)):
            return False
    return True


def hirota_residual(frame: TodaFrame, n: int, t: complex = 0.0) -> float:
    """Bilinear form of the lattice equation, all derivatives exact."""
    d = frame.direction
    sig, grad, hess, _ = site_jet(frame, n, t)
    sc2 = frame.sigma_flat_c**2
    d_sig = d @ grad
    dd_sig = d @ hess @ d
    t1 = sig * sc2 * dd_sig
    t2 = -sc2 * d_sig**2
    t3 = frame.v_c * sc2 * sig**2
    t4 = -site_jet(frame, n + 1, t)[0] * site_jet(frame, n - 1, t)[0]
    total = t1 + t2 + t3 + t4
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4), 1e-300)
    return abs(total) / scale


def toda2d_residual(ctx: SigmaContext, v1: CurvePoint, v2: CurvePoint,
                    n: int, t1: complex = 0.0, t2: complex = 0.0,
                    u0=None, rng: np.random.Generator | None = None) -> float:
    """Two-time lattice residual with step c = abel(v1) + abel(v2)."""
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

    def vhat(u):
        sig, grad, hess, scale = sigma_jet2(ctx, u)
        _guarded(ctx, sig, scale, "two-time potential")
        return ((d1 @ grad) * (d2 @ grad)) / sig**2 - (d1 @ hess @ d2) / sig

    base = u0 + n * c + t1 * d1 + t2 * d2

    def w(s1, s2):
        return vhat(base + s1 * d1 + s2 * d2) - vhat_c

    h = 1e-4
    ratio = (w(h, h) * w(-h, -h)) / (w(h, -h) * w(-h, h))
    lhs = -np.log(ratio) / (4 * h * h)
    rhs = (vhat(u0 + (n + 1) * c + t1 * d1 + t2 * d2) - 2 * vhat(base)
           + vhat(u0 + (n - 1) * c + t1 * d1 + t2 * d2))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def flaschka(frame: TodaFrame, k: int, t: complex = 0.0) -> tuple[complex, complex]:
    """Flaschka pair (a_k, b_k) from sigma quotients.

    a_k couples sites k and k+1 (its sigma quotient reads sites k..k+2);
    b_k is the difference of directional zeta values at sites k+1 and k,
    shifted by the constant zeta_c of the frame.
    """
    ctx, d = frame.ctx, frame.direction
    s_k, grad_k, _, scale_k = site_jet(frame, k, t)
    s_k1, grad_k1, _, scale_k1 = site_jet(frame, k + 1, t)
    s_k2 = site_jet(frame, k + 2, t)[0]
    _guarded(ctx, s_k1, scale_k1, f"site {k + 1}")
    a_k = s_k2 * s_k / (s_k1**2 * frame.sigma_flat_c**2)
    _guarded(ctx, s_k, scale_k, f"zeta at site {k}")
    b_k = (d @ grad_k1) / s_k1 - (d @ grad_k) / s_k - frame.zeta_c
    return complex(a_k), complex(b_k)


def flaschka_wp_path(frame: TodaFrame, k: int, t: complex = 0.0) -> complex:
    """a_k recomputed as the potential difference V_c - V at site k+1."""
    return complex(frame.v_c - _site_V(frame, k + 1, t))


def flaschka_ode_residual(frame: TodaFrame, n_window: int, t: complex = 0.0,
                          fd_step: float = 1e-4) -> float:
    """Max residual of the Flaschka equations of motion over a site window.

    The pairs are taken one time at a time, so each time's site jets are
    summed once for the whole window.
    """
    h = fd_step
    now = {k: flaschka(frame, k, t) for k in range(-1, n_window + 1)}
    lo, hi, lo2, hi2 = ([flaschka(frame, k, s) for k in range(n_window)]
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
        worst = max(worst, res_a, res_b)
    return worst


@dataclass(frozen=True)
class TodaState:
    """Flaschka variables a_1..a_N, b_1..b_N of one lattice period."""

    a: np.ndarray
    b: np.ndarray
    t: complex = 0.0

    @property
    def n_sites(self) -> int:
        return self.a.size


def toda_state(frame: TodaFrame, n_sites: int, t: complex = 0.0) -> TodaState:
    pairs = [flaschka(frame, k, t) for k in range(1, n_sites + 1)]
    return TodaState(np.array([p[0] for p in pairs]),
                     np.array([p[1] for p in pairs]), t)


def lax_matrix(state: TodaState, w_hat: complex) -> np.ndarray:
    """Periodic tridiagonal Lax matrix with spectral parameter w_hat."""
    n = state.n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        mat[k, k] = state.b[k]
        if k + 1 < n:
            mat[k, k + 1] = 1.0
            mat[k + 1, k] = state.a[k]
    mat[0, n - 1] += state.a[n - 1] / w_hat
    mat[n - 1, 0] += w_hat
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

    @property
    def n_sites(self) -> int:
        return self.p_coeffs.size - 1

    @cached_property
    def weierstrass_z(self) -> np.ndarray:
        """The 2N branch values of the model w^2 = P(z)^2 - 4 prod(a).

        The roots are found on the first read only.
        """
        p = self.p_coeffs
        disc = polyadd(polymul(p, p), as_poly([-4.0 * self.prod_a]))
        return sorted_roots(trim(disc))


def _tridiag_charpoly(b: np.ndarray, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """det of the tridiagonal block over sites lo..hi in z, ascending coeffs."""
    if hi < lo:
        return np.array([1.0 + 0.0j])
    prev2 = np.array([1.0 + 0.0j])
    prev1 = np.array([b[lo], -1.0], dtype=complex)
    for k in range(lo + 1, hi + 1):
        cur = polyadd(polymul(np.array([b[k], -1.0]), prev1), -a[k - 1] * prev2)
        prev2, prev1 = prev1, cur
    return prev1


def char_poly(state: TodaState) -> SpectralData:
    """P(z) by the three-term recursion and the invariants; roots on demand."""
    n = state.n_sites
    b, a = state.b, state.a
    p = polyadd(_tridiag_charpoly(b, a, 0, n - 1),
                -a[n - 1] * _tridiag_charpoly(b, a, 1, n - 2))
    prod_a = complex(np.prod(a))
    invariants = np.array([(-1.0) ** (n + k) * p[n - k] for k in range(1, n + 1)]
                          + [prod_a], dtype=complex)
    return SpectralData(p, invariants, prod_a)


def lax_det_residual(state: TodaState) -> float:
    """Check det(L - z) against P(z) + (-1)^(N-1) (w + prod(a)/w).

    The direct determinant is the oracle for the recursion-built P.
    """
    rng = np.random.default_rng(7)
    data = char_poly(state)
    p, prod_a = data.p_coeffs, data.prod_a
    n = state.n_sites
    worst = 0.0
    for _ in range(5):
        z = complex(rng.normal(), rng.normal())
        w_hat = complex(rng.normal(), rng.normal()) + 2.0
        det = np.linalg.det(lax_matrix(state, w_hat) - z * np.eye(n))
        model = polyval(p, z) + (-1.0) ** (n - 1) * (w_hat + prod_a / w_hat)
        worst = max(worst, abs(det - model) / max(1.0, abs(det)))
    return worst


def spectral_morphism(state: TodaState):
    """Verify w^2 = P^2 - 4 prod(a) on curve samples; return (residual, data).

    Points (z, w_hat) on the spectral curve satisfy
    w_hat^2 - (-1)^N P(z) w_hat + prod(a) = 0, and w = 2 w_hat - (-1)^N P(z)
    squares to the degree-2N model whose 2N roots are
    ``data.weierstrass_z``, found only when read.
    """
    rng = np.random.default_rng(11)
    data = char_poly(state)
    n = state.n_sites
    worst = 0.0
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        p_hat = (-1.0) ** n * polyval(data.p_coeffs, z)
        disc = np.sqrt(p_hat**2 - 4.0 * data.prod_a)
        w_hat = 0.5 * (p_hat + disc)
        if abs(w_hat) < 1e-8:
            w_hat = 0.5 * (p_hat - disc)
        w = 2.0 * w_hat - p_hat
        target = polyval(data.p_coeffs, z) ** 2 - 4.0 * data.prod_a
        worst = max(worst, abs(w**2 - target) / max(1.0, abs(target)))
    return worst, data


def invariant_drift(frame: TodaFrame, n_sites: int, t_samples) -> float:
    """Max relative drift of the invariants over the sampled times."""
    t_samples = list(t_samples)
    base = char_poly(toda_state(frame, n_sites, t_samples[0])).invariants
    worst = 0.0
    for t in t_samples[1:]:
        cur = char_poly(toda_state(frame, n_sites, t)).invariants
        worst = max(worst, float(np.max(np.abs(cur - base) / (1.0 + np.abs(base)))))
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
    inv = char_poly(toda_state(frame, n_sites, t)).invariants
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
