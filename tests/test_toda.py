import dataclasses

import numpy as np
import pytest

from sigmatoda.curves import CurvePoint, make_curve, random_curve_points
from sigmatoda.errors import ConfluentInput, ThetaDivisorPole
from sigmatoda.sigma import abel_map, sigma_context, sigma_jet2, wp, zeta
from sigmatoda.toda import (
    V,
    char_poly,
    direction_vector,
    flaschka,
    flaschka_ode_residual,
    flaschka_wp_path,
    frame_well_conditioned,
    hirota_residual,
    invariant_drift,
    lax_det_residual,
    lax_matrix,
    log_second_difference,
    site_u,
    spectral_morphism,
    toda2d_residual,
    toda_frame,
    toda_residual_1d,
)


@pytest.fixture(scope="module")
def ctx1():
    return sigma_context(make_curve(1, [0, -1, 0]))


@pytest.fixture(scope="module")
def ctx2():
    return sigma_context(make_curve(2, [1, 0, 0, 0, 0]))


def conditioned_frame(ctx, rng, n_range=range(-4, 5)):
    for _ in range(40):
        v1 = random_curve_points(ctx.curve, rng, 1)[0]
        frame = toda_frame(ctx, v1, rng=rng)
        if frame_well_conditioned(frame, n_range):
            return frame
    raise RuntimeError("no conditioned frame found")


def directional_derivative(ctx, xp: complex, h, u, order: int = 1,
                           fd_step: float = 1e-5) -> complex:
    """Finite-difference oracle: derivative of h along (xp^0, ..., xp^{g-1}).

    h takes a vector in C^g and returns a scalar; this is the independent
    check of the derivatives read from the theta series.
    """
    d = direction_vector(xp, ctx.genus)
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if order == 1:
        return (h(u + fd_step * d) - h(u - fd_step * d)) / (2 * fd_step)
    return (h(u + fd_step * d) - 2 * h(u) + h(u - fd_step * d)) / fd_step**2


def test_directional_derivative_exact_vs_fd(ctx2):
    rng = np.random.default_rng(0)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    xp = 0.7 - 0.2j

    def log_sigma(v):
        from sigmatoda.sigma import sigma

        return np.log(sigma(ctx2, v))

    d = direction_vector(xp, ctx2.genus)
    sig, grad, hess, _ = sigma_jet2(ctx2, u)
    exact = (d @ grad) / sig
    fd = directional_derivative(ctx2, xp, log_sigma, u, order=1)
    assert exact == pytest.approx(fd, abs=1e-6)
    exact2 = (d @ hess @ d) / sig - exact**2
    fd2 = directional_derivative(ctx2, xp, log_sigma, u, order=2, fd_step=1e-4)
    assert exact2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)


def test_directional_derivatives_commute(ctx2):
    # mixed directional derivatives of log sigma agree in either order
    rng = np.random.default_rng(1)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    from sigmatoda.sigma import sigma_jet2
    from sigmatoda.toda import direction_vector

    d1 = direction_vector(0.3 + 0.4j, 2)
    d2 = direction_vector(-1.2 + 0.1j, 2)
    sig, grad, hess, _ = sigma_jet2(ctx2, u)
    m12 = (d1 @ hess @ d2) / sig - (d1 @ grad) * (d2 @ grad) / sig**2
    m21 = (d2 @ hess @ d1) / sig - (d2 @ grad) * (d1 @ grad) / sig**2
    assert m12 == pytest.approx(m21, rel=1e-14)


def test_v_genus1_is_wp(ctx1):
    rng = np.random.default_rng(2)
    frame = conditioned_frame(ctx1, rng)
    u = site_u(frame, 0, 0.1)
    assert V(frame, u) == pytest.approx(wp(ctx1, 1, 1, u), rel=1e-12)
    from sigmatoda.curves import f12

    assert frame.v_c == pytest.approx(f12(ctx1.curve, frame.v1.x), rel=1e-14)


def test_toda_second_difference_residual(ctx1, ctx2):
    rng = np.random.default_rng(3)
    for ctx, tol in ((ctx1, 1e-6), (ctx2, 1e-5)):
        frame = conditioned_frame(ctx, rng)
        t0 = complex(rng.normal() * 0.05, rng.normal() * 0.05)
        if not frame_well_conditioned(frame, range(-4, 5), t0):
            t0 = 0.0
        for n in range(-3, 4):
            assert toda_residual_1d(frame, n, t0) < tol


def test_fd_step_convergence_order(ctx1):
    rng = np.random.default_rng(4)
    frame = conditioned_frame(ctx1, rng)
    u_n, d, vc = site_u(frame, 0, 0.02), frame.direction, frame.v_c
    v_n = V(frame, u_n)
    rhs = V(frame, site_u(frame, 1, 0.02)) - 2 * v_n + V(frame, site_u(frame, -1, 0.02))

    def residual(h):
        # the raw stencil, without the Richardson pass of toda_residual_1d
        lhs = -log_second_difference(
            lambda s: (V(frame, u_n + s * d) - vc) * (V(frame, u_n - s * d) - vc),
            v_n - vc, h)
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)

    r_coarse, r_fine = residual(4e-2), residual(2e-2)
    assert r_fine < r_coarse / 2.5  # second order in the step


def test_hirota_residual_and_joint_pass(ctx1, ctx2):
    rng = np.random.default_rng(5)
    for ctx, tol_h, tol_t in ((ctx1, 1e-7, 1e-6), (ctx2, 1e-5, 1e-5)):
        frame = conditioned_frame(ctx, rng)
        for n in (-2, 0, 2):
            assert hirota_residual(frame, n, 0.04) < tol_h
            assert toda_residual_1d(frame, n, 0.04) < tol_t


def test_two_time_residual(ctx2):
    rng = np.random.default_rng(6)
    for _ in range(3):
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        try:
            r = toda2d_residual(ctx2, v1, v2, 0, 0.02, -0.01, rng=rng)
        except Exception:
            continue
        assert r < 1e-5


def test_two_time_confluent_guard(ctx2):
    rng = np.random.default_rng(7)
    v1 = random_curve_points(ctx2.curve, rng, 1)[0]
    with pytest.raises(ConfluentInput):
        toda2d_residual(ctx2, v1, v1, 0)


def test_two_time_matches_one_time_in_limit(ctx1):
    # v2 -> v1 reproduces the one-time equation's residual behavior
    rng = np.random.default_rng(8)
    v1 = random_curve_points(ctx1.curve, rng, 1)[0]
    x2 = v1.x + 1e-4
    y2 = np.sqrt(ctx1.curve.f(x2))
    if abs(y2 - v1.y) > abs(y2 + v1.y):
        y2 = -y2
    r = toda2d_residual(ctx1, v1, CurvePoint(x2, y2), 0, 0.01, 0.02, rng=rng)
    assert r < 1e-4


def test_flaschka_double_path(ctx1, ctx2):
    rng = np.random.default_rng(9)
    for ctx in (ctx1, ctx2):
        frame = conditioned_frame(ctx, rng)
        for k in (-1, 0, 1):
            a_sigma, _ = flaschka(frame, k, 0.03)
            a_wp = flaschka_wp_path(frame, k, 0.03)
            assert abs(a_sigma - a_wp) < 1e-7 * max(1.0, abs(a_sigma))


def test_flaschka_genus1_closed_forms(ctx1):
    # a and b reduce to coordinate differences through the step point 2*v1
    rng = np.random.default_rng(10)
    frame = conditioned_frame(ctx1, rng)
    from sigmatoda.addition import point_multiples

    double = point_multiples(ctx1.curve, frame.v1, 2)[1]
    assert len(double) == 1
    xc, yc = double[0].x, double[0].y
    assert frame.v_c == pytest.approx(xc, rel=1e-9)
    t0 = 0.017
    for k in (0, 1):
        a_k, b_k = flaschka(frame, k, t0)
        u_next = site_u(frame, k + 1, t0)
        u_here = site_u(frame, k, t0)
        x_next = wp(ctx1, 1, 1, u_next)
        assert a_k == pytest.approx(xc - x_next, rel=1e-8)
        # b_k = (y(u_k) - y_c) / (x(u_k) - x_c) for one involution choice of y_c
        h = 1e-5
        d1 = (wp(ctx1, 1, 1, u_here + h) - wp(ctx1, 1, 1, u_here - h)) / (2 * h)
        d2 = (wp(ctx1, 1, 1, u_here + h / 2) - wp(ctx1, 1, 1, u_here - h / 2)) / h
        y_here = (4 * d2 - d1) / 6
        x_here = wp(ctx1, 1, 1, u_here)
        candidates = [(y_here - s * yc) / (x_here - xc) for s in (1, -1)]
        assert min(abs(b_k - c) for c in candidates) < 1e-6 * max(1.0, abs(b_k))


def test_flaschka_equations_of_motion(ctx1, ctx2):
    rng = np.random.default_rng(11)
    frame1 = conditioned_frame(ctx1, rng)
    assert flaschka_ode_residual(frame1, 3, 0.02) < 1e-6
    frame2 = conditioned_frame(ctx2, rng)
    assert flaschka_ode_residual(frame2, 2, 0.02) < 1e-5


def test_ode_residual_richardson_floor(ctx1):
    rng = np.random.default_rng(12)
    frame = conditioned_frame(ctx1, rng)
    assert flaschka_ode_residual(frame, 2, 0.02, fd_step=1e-3) < 1e-8


def test_lax_and_invariants_random_state():
    rng = np.random.default_rng(13)
    a = rng.normal(size=3) + 0.2
    b = rng.normal(size=3)
    from sigmatoda.toda import TodaState

    state = TodaState(a.astype(complex), b.astype(complex))
    assert lax_det_residual(state) < 1e-10
    data = char_poly(state)
    assert data.invariants[0] == pytest.approx(np.sum(b), rel=1e-12)
    i2 = sum(b[i] * b[j] for i in range(3) for j in range(i)) - np.sum(a)
    assert data.invariants[1] == pytest.approx(i2, rel=1e-12)
    assert data.invariants[-1] == pytest.approx(np.prod(a), rel=1e-12)
    assert data.p_coeffs[-1] == pytest.approx((-1.0) ** 3)
    res, data = spectral_morphism(state)
    assert res < 1e-9
    assert data.weierstrass_z.size == 6
    mat = lax_matrix(state, 1.3 + 0.2j)
    assert mat.shape == (3, 3)


def test_flaschka_independent_of_truncation_policy(ctx2):
    # the variables are curve data; doubling the theta radius must not move them
    rng = np.random.default_rng(15)
    frame = conditioned_frame(ctx2, rng)
    wide_ctx = dataclasses.replace(ctx2, trunc_radius=2 * ctx2.trunc_radius)
    wide = toda_frame(wide_ctx, frame.v1, u0=frame.u0)
    for k in (0, 1):
        a0, b0 = flaschka(frame, k, 0.02)
        a1, b1 = flaschka(wide, k, 0.02)
        assert abs(a0 - a1) < 1e-7 * max(1.0, abs(a0))
        assert abs(b0 - b1) < 1e-7 * max(1.0, abs(b0))


def test_invariant_drift_negative_control(ctx1):
    # a frame whose step is not torsion has no N-periodic wraparound
    rng = np.random.default_rng(14)
    frame = conditioned_frame(ctx1, rng)
    drift = invariant_drift(frame, 3, [0.0, 0.1, 0.2])
    assert drift > 1e-4


def _periodic_state(ctx, order):
    from sigmatoda.division import torsion_to_frame, xi_set
    from sigmatoda.toda import toda_state

    cand = max((c for c in xi_set(ctx.curve, order)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    return toda_state(torsion_to_frame(ctx, cand, order), order, 0.03)


def _lax_det_through_char_poly(state, samples=5):
    """The determinant oracle read off the full spectral data, roots and all."""
    from sigmatoda.polyutil import polyval

    rng = np.random.default_rng(7)
    data = char_poly(state)
    n = state.n_sites
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.normal(), rng.normal())
        w_hat = complex(rng.normal(), rng.normal()) + 2.0
        det = np.linalg.det(lax_matrix(state, w_hat) - z * np.eye(n))
        model = polyval(data.p_coeffs, z) \
            + (-1.0) ** (n - 1) * (w_hat + data.prod_a / w_hat)
        worst = max(worst, abs(det - model) / max(1.0, abs(det)))
    return worst


def _branch_values_reference(state):
    """Roots of P^2 - 4 prod(a), sorted, from the recursion built here."""
    from sigmatoda.polyutil import aberth_roots, as_poly, polyadd, polymul, trim
    from sigmatoda.toda import _tridiag_charpoly

    n, a, b = state.n_sites, state.a, state.b
    p = polyadd(_tridiag_charpoly(b, a, 0, n - 1),
                -a[n - 1] * _tridiag_charpoly(b, a, 1, n - 2))
    prod_a = complex(np.prod(a))
    roots = aberth_roots(trim(polyadd(polymul(p, p), as_poly([-4.0 * prod_a]))))
    return roots[np.lexsort((roots.imag, roots.real))]


def test_lax_det_residual_needs_no_spectral_roots(ctx1, monkeypatch):
    import sigmatoda.polyutil as polyutil_mod

    for order in (3, 4):
        state = _periodic_state(ctx1, order)
        expected = _lax_det_through_char_poly(state)
        branch = _branch_values_reference(state)

        def no_roots(*args, **kwargs):
            raise AssertionError("lax_det_residual asked for spectral roots")

        with monkeypatch.context() as patch:
            patch.setattr(polyutil_mod, "aberth_roots", no_roots)
            assert lax_det_residual(state) == expected
            # the spectral data find their roots only when they are read
            data = char_poly(state)
            res, morph_data = spectral_morphism(state)
            with pytest.raises(AssertionError):
                char_poly(state).weierstrass_z
        assert expected < 1e-10 and res < 1e-9
        assert np.array_equal(data.weierstrass_z, branch)
        assert np.array_equal(morph_data.weierstrass_z, branch)
        assert data.weierstrass_z is data.weierstrass_z  # found once


def _memo_frames(ctx1, ctx2):
    from sigmatoda.division import torsion_to_frame, xi_set

    rng = np.random.default_rng(16)
    cand = max((c for c in xi_set(ctx1.curve, 3)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    return [conditioned_frame(ctx1, rng, range(-1, 6)),
            conditioned_frame(ctx2, rng, range(-1, 6)),
            torsion_to_frame(ctx1, cand, 3)]


def test_site_jets_cost_one_theta_pass_per_site(ctx1, ctx2, monkeypatch):
    import importlib

    from sigmatoda.sigma import sigma, sigma_jet2, sigma_with_scale
    from sigmatoda.toda import site_jet, toda_state

    # the package attribute ``sigma`` is the function, not the module
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    n, t, n_sites = 0, 0.02 - 0.01j, 3
    for frame in _memo_frames(ctx1, ctx2):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sigma_mod, "_theta_sum", counted)
            assert frame_well_conditioned(frame, range(n - 1, n + 2), t)
            results = (toda_residual_1d(frame, n, t), hirota_residual(frame, n, t),
                       flaschka(frame, n, t), flaschka_wp_path(frame, n, t),
                       toda_state(frame, n_sites, t))
        # sites n-1..n+2 and 1..N+2 once each, plus the 4 stencil points
        sites = set(range(n - 1, n + 3)) | set(range(1, n_sites + 3))
        assert len(calls) == len(sites) + 4
        assert sorted(key[1] for key in frame._site_jets) == sorted(sites)

        # the memo's values are those of the per-call evaluators
        for site in sites:
            u = site_u(frame, site, t)
            sig, grad, hess, scale = site_jet(frame, site, t)
            ref_sig, ref_grad, ref_hess, ref_scale = sigma_jet2(frame.ctx, u)
            assert sig == ref_sig == sigma(frame.ctx, u)
            assert np.array_equal(grad, ref_grad) and np.array_equal(hess, ref_hess)
            assert (sig, scale) == (ref_sig, ref_scale) \
                == sigma_with_scale(frame.ctx, u)
            assert flaschka_wp_path(frame, site - 1, t) == frame.v_c - V(frame, u)
        # and every check reads the same as on a frame with an empty memo
        assert toda_residual_1d(dataclasses.replace(frame), n, t) == results[0]
        assert hirota_residual(dataclasses.replace(frame), n, t) == results[1]
        assert flaschka(dataclasses.replace(frame), n, t) == results[2]
        assert flaschka_wp_path(dataclasses.replace(frame), n, t) == results[3]
        state = toda_state(dataclasses.replace(frame), n_sites, t)
        assert np.array_equal(state.a, results[4].a)
        assert np.array_equal(state.b, results[4].b)

        # a new time keeps only its own sites
        flaschka(frame, 1, 0.05)
        assert set(frame._site_jets) == {(0.05, 1), (0.05, 2), (0.05, 3)}


def _on_divisor_point(ctx2):
    # abel(P) lies on the theta divisor at genus 2; a period translate keeps
    # sigma at ~1e-15 of its scale while |sigma| is ~1e-8
    p = random_curve_points(ctx2.curve, np.random.default_rng(5), 1)
    return abel_map(ctx2, p).u + 6.0 * ctx2.periods.omega1[:, 0]


def test_toda_pole_guard_is_relative_to_the_sigma_scale(ctx2):
    # |sigma| is above an absolute 1e-10, so only the relative test sees the
    # pole, as wp does
    from sigmatoda.sigma import sigma_with_scale

    u = _on_divisor_point(ctx2)
    val, scale = sigma_with_scale(ctx2, u)
    assert abs(val) > 1e-9 and abs(val) < 1e-12 * scale
    with pytest.raises(ThetaDivisorPole):
        wp(ctx2, 1, 1, u)
    v1 = random_curve_points(ctx2.curve, np.random.default_rng(1), 1)[0]
    frame = toda_frame(ctx2, v1, rng=np.random.default_rng(2))
    with pytest.raises(ThetaDivisorPole):
        V(frame, u)
    # a frame whose site 1 is that point
    on_pole = toda_frame(ctx2, v1, u0=u - frame.c)
    assert np.array_equal(site_u(on_pole, 1), u)
    with pytest.raises(ThetaDivisorPole):
        flaschka(on_pole, 0)
    with pytest.raises(ThetaDivisorPole):
        flaschka_wp_path(on_pole, 0)
    assert not frame_well_conditioned(on_pole, range(0, 3))


def _step_of_sigma_below(ctx, bound):
    """A base point whose step c = 2 abel(v1) has |sigma(c)| < bound."""
    from sigmatoda.sigma import sigma

    rng = np.random.default_rng(21)
    for _ in range(50):
        v1 = random_curve_points(ctx.curve, rng, 1)[0]
        if abs(sigma(ctx, 2.0 * abel_map(ctx, [v1]).u)) < bound:
            return v1
    raise RuntimeError("no base point with a small step sigma")


@pytest.mark.parametrize("s", [1e-13, 1e13])
def test_pole_rule_is_free_of_the_sigma_scale(ctx1, ctx2, s):
    # rescaling gamma0 rescales sigma, not its zeros: the Toda step and every
    # potential read the same, and the on-divisor point stays a pole
    for ctx in (ctx1, ctx2):
        scaled = dataclasses.replace(ctx, gamma0=ctx.gamma0 * s)
        v1 = _step_of_sigma_below(ctx, 10.0)
        frame = toda_frame(ctx, v1, rng=np.random.default_rng(3))
        other = toda_frame(scaled, v1, rng=np.random.default_rng(3))
        assert np.array_equal(other.c, frame.c) and np.array_equal(other.u0, frame.u0)
        assert other.zeta_c == pytest.approx(frame.zeta_c, rel=1e-14, abs=0)
        for n in (-1, 0, 1):
            assert V(other, site_u(other, n)) == pytest.approx(
                V(frame, site_u(frame, n)), rel=1e-14, abs=0)

    scaled = dataclasses.replace(ctx2, gamma0=ctx2.gamma0 * s)
    u = _on_divisor_point(ctx2)
    with pytest.raises(ThetaDivisorPole):
        wp(scaled, 1, 1, u)
    with pytest.raises(ThetaDivisorPole):
        zeta(scaled, 1, u)
    v1 = random_curve_points(ctx2.curve, np.random.default_rng(1), 1)[0]
    frame = toda_frame(scaled, v1, rng=np.random.default_rng(2))
    with pytest.raises(ThetaDivisorPole):
        V(frame, u)
    on_pole = toda_frame(scaled, v1, u0=u - frame.c)
    with pytest.raises(ThetaDivisorPole):
        flaschka(on_pole, 0)
