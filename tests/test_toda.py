import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from box_theta import theta_pass
from former_jet import former_jet, former_partial
from former_lax import former_char_poly, former_lax_matrix, former_lax_minus_z

from sigmatoda.curves import CurvePoint, make_curve, random_curve_points
from sigmatoda.errors import (
    ConfluentInput,
    NonFiniteValue,
    SigmaTodaError,
    ThetaDivisorPole,
    VanishingGap,
)
from sigmatoda.sigma import (
    _bound,
    _guarded,
    _log_gap,
    abel_map,
    natural_index_set,
    sigma,
    sigma_context,
    sigma_jet2,
    wp,
    wp_matrix,
    zeta,
)
from sigmatoda.theta import DEFAULT_TOL, JET, _plan
from sigmatoda.toda import (
    TodaState,
    V,
    _lax_minus_z,
    _potential,
    char_poly,
    direction_vector,
    flaschka,
    flaschka_ode_residual,
    flaschka_wp_path,
    frame_well_conditioned,
    hirota_residual,
    invariant_drift,
    lax_det_residual,
    site_jets,
    site_u,
    spectral_morphism,
    toda2d_residual,
    toda_frame,
    toda_residual_1d,
    toda_state,
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


def former_sigma_jet2(ctx, u):
    """Oracle: the former full-gradient sigma_jet2, (sigma, grad, Hessian, |env| L1).

    A stack u of shape (K, g) returns the list of the K points' tuples.
    """
    jets = former_jet(ctx, u, 2)
    out = []
    for env, theta0, l1, q, tvec, hmat in jets if isinstance(jets, list) else [jets]:
        sig = env * theta0
        dsig = env * (q * theta0 + tvec)
        ddsig = env * ((np.outer(q, q) - ctx.kappa) * theta0
                       + np.outer(q, tvec) + np.outer(tvec, q) + hmat)
        out.append((sig, dsig, ddsig, abs(env) * l1))
    return out if isinstance(jets, list) else out[0]


def former_frame_constants(ctx, v1, c):
    """Oracle: the former toda_frame jet code, (sigma_flat(c), zeta_c)."""
    g = ctx.genus
    flat = tuple(i - 1 for i in natural_index_set(g, 2))
    jet = former_jet(ctx, c, len(flat) + 1)
    s_flat_c = former_partial(ctx, jet, flat)
    zc = sum(v1.x ** (i - 1) * former_partial(ctx, jet, flat + (i - 1,))
             for i in range(1, g + 1)) / s_flat_c
    return s_flat_c, zc


def former_directional_jet(ctx, u, d1, d2):
    """Oracle: (sigma, D1 sigma, D2 sigma, D1 D2 sigma, scale) by contraction."""
    sig, grad, hess, scale = former_sigma_jet2(ctx, u)
    return sig, d1 @ grad, d2 @ grad, d1 @ hess @ d2, scale


def former_potential(ctx, u, d) -> complex:
    """Oracle: the former -D^2 log sigma along d, from the full jet."""
    sig, grad, hess, _ = former_sigma_jet2(ctx, u)
    first = (d @ grad) / sig
    return first**2 - (d @ hess @ d) / sig


def jet_log_gap(ctx, u, d1, d2, c):
    """(v, -D1 D2 log(v - c)) at one u: ``_log_gap`` of its ``sigma_jet2`` record."""
    sig, *_, scale, moments = sigma_jet2(ctx, u, d1, d2)
    _guarded(sig, scale, u)
    return _log_gap(_bound(ctx, 4, d1, d2).curvature, moments, c, u)


def former_log_gap_curvature(ctx, u, d1, d2, c):
    """Oracle: the former log_gap_curvature, with theta passes of its own.

    The moments of orders 1 and 2 come from the coordinate jet, those of
    orders 3 and 4 from a pass along w1 and w2 over its own value.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    d1, d2 = (np.atleast_1d(np.asarray(d, dtype=complex)) for d in (d1, d2))
    w1, w2 = ctx.pmat @ d1, ctx.pmat @ d2
    # the reach of the widest plan, rows to order 4
    radius = _plan(ctx.periods.riemann, DEFAULT_TOL, 4).extent
    args = (ctx.chars.a, ctx.chars.b, ctx.pmat @ u, ctx.periods.riemann, radius, DEFAULT_TOL)
    theta0, grad, hess, _ = theta_pass(JET[2], *args)
    value, along, _, _ = theta_pass(JET[2], *args, along=(w1, w2))
    m10, m01 = (w1 @ grad) / theta0, (w2 @ grad) / theta0
    m20, m11, m02 = ((wa @ hess @ wb) / theta0
                     for wa, wb in ((w1, w1), (w1, w2), (w2, w2)))
    m21, m12, m22 = along[5:] / value
    k11 = m11 - m10 * m01
    k21 = m21 - m20 * m01 - 2 * m11 * m10 + 2 * m10**2 * m01
    k12 = m12 - m02 * m10 - 2 * m11 * m01 + 2 * m01**2 * m10
    k22 = (m22 - 2 * (m21 * m01 + m12 * m10 + m11**2) - m20 * m02
           + 2 * (m20 * m01**2 + m02 * m10**2) + 8 * m11 * m10 * m01
           - 6 * m10**2 * m01**2)
    v = d1 @ ctx.kappa @ d2 - k11
    gap = v - c
    return complex(v), complex((k22 * gap + k21 * k12) / gap**2)


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


def log_second_difference(product, gap0: complex, h: float) -> complex:
    """Finite-difference oracle: central second difference of log gap at step h.

    ``product(h)`` is gap(h) * gap(-h) and ``gap0`` is gap(0); the
    difference is one log of their ratio, so branch cuts cancel.
    """
    return np.log(product(h) / gap0**2) / h**2


def lattice_lhs(product, gap0: complex, h: float) -> complex:
    """-(d/dt)^2 log gap: the second difference with one Richardson pass."""
    return -(4.0 * log_second_difference(product, gap0, h / 2)
             - log_second_difference(product, gap0, h)) / 3.0


def mixed_lattice_lhs(gap, h: float) -> complex:
    """-D1 D2 log gap(s1, s2) at 0: the 4-point stencil, one Richardson pass."""
    def stencil(k):
        ratio = gap(k, k) * gap(-k, -k) / (gap(k, -k) * gap(-k, k))
        return -np.log(ratio) / (4 * k * k)

    return (4.0 * stencil(h / 2) - stencil(h)) / 3.0


def two_direction_potential(ctx, u, d1, d2) -> complex:
    """-D1 D2 log sigma from sigma's former full 2-jet: the oracle's potential."""
    sig, grad, hess, _ = former_sigma_jet2(ctx, u)
    return (d1 @ grad) * (d2 @ grad) / sig**2 - (d1 @ hess @ d2) / sig


def gap_derivatives(ctx, u, d1, d2, c):
    """(v, D1 D2 v, D1 v * D2 v) read back from the exact lhs at two gaps.

    lhs * w^2 = -D1 D2 v * w + D1 v * D2 v with w = v - c, so two values of
    c separate the two derivative terms.
    """
    v, lhs = jet_log_gap(ctx, u, d1, d2, c)
    shift = max(1.0, abs(v))
    _, lhs_far = jet_log_gap(ctx, u, d1, d2, c - shift)
    near, far = lhs * (v - c) ** 2, lhs_far * (v - c + shift) ** 2
    dd_v = (near - far) / shift
    return v, dd_v, near + dd_v * (v - c)


def test_directional_derivative_exact_vs_fd(ctx2):
    rng = np.random.default_rng(0)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    xp = 0.7 - 0.2j

    def log_sigma(v):
        from sigmatoda.sigma import sigma

        return np.log(sigma(ctx2, v))

    d = direction_vector(xp, ctx2.genus)
    sig, d_sig, _, dd_sig, _, _ = sigma_jet2(ctx2, u, d, d)
    exact = d_sig / sig
    fd = directional_derivative(ctx2, xp, log_sigma, u, order=1)
    assert exact == pytest.approx(fd, abs=1e-6)
    exact2 = dd_sig / sig - exact**2
    fd2 = directional_derivative(ctx2, xp, log_sigma, u, order=2, fd_step=1e-4)
    assert exact2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)


def test_directional_derivatives_commute(ctx2):
    # mixed directional derivatives of log sigma agree in either order
    rng = np.random.default_rng(1)
    pts = random_curve_points(ctx2.curve, rng, 2)
    u = abel_map(ctx2, pts).u
    d1 = direction_vector(0.3 + 0.4j, 2)
    d2 = direction_vector(-1.2 + 0.1j, 2)
    sig, s1, s2, s12, _, _ = sigma_jet2(ctx2, u, d1, d2)
    _, t2, t1, s21, _, _ = sigma_jet2(ctx2, u, d2, d1)
    assert (s1, s2) == (t1, t2)
    m12 = s12 / sig - s1 * s2 / sig**2
    m21 = s21 / sig - t2 * t1 / sig**2
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


def test_exact_lhs_satisfies_the_wp_equations_at_genus_one(ctx1):
    # on y^2 = f(x) = x^3 - x, V = wp obeys V'^2 = 4 f(V) and V'' = 2 f'(V)
    rng = np.random.default_rng(30)
    curve = ctx1.curve
    for _ in range(8):
        u = abel_map(ctx1, random_curve_points(curve, rng, 2)).u
        c = complex(rng.normal(), rng.normal())
        v, dd_v, d_v_sq = gap_derivatives(ctx1, u, [1.0], [1.0], c)
        assert v == pytest.approx(wp(ctx1, 1, 1, u), rel=1e-12)
        scale = max(1.0, abs(v) ** 3)
        assert abs(d_v_sq - 4 * curve.f(v)) < 1e-12 * scale
        assert abs(dd_v - 2 * (3 * v**2 - 1)) < 1e-12 * scale


X1 = 0.4 - 0.3j


@pytest.mark.parametrize("x2", [X1, -0.9 + 0.2j], ids=["d1=d2", "d1!=d2"])
def test_exact_lhs_matches_the_finite_difference_oracle(ctx2, x2):
    rng = np.random.default_rng(31)
    d1, d2 = direction_vector(X1, 2), direction_vector(x2, 2)
    for _ in range(4):
        u = abel_map(ctx2, random_curve_points(ctx2.curve, rng, 2)).u
        v0 = two_direction_potential(ctx2, u, d1, d2)
        # a gap |v - c| of 1 + |v| keeps the oracle's steps well resolved
        c = v0 - (1.0 + abs(v0)) * np.exp(2j * np.pi * rng.random())
        v, lhs = jet_log_gap(ctx2, u, d1, d2, c)
        assert v == pytest.approx(v0, rel=1e-12)

        def w(s1, s2):
            return two_direction_potential(ctx2, u + s1 * d1 + s2 * d2, d1, d2) - c

        if x2 == X1:
            oracle = lattice_lhs(lambda h: w(h, 0) * w(-h, 0), w(0, 0), 1e-3)
        else:
            oracle = mixed_lattice_lhs(w, 1e-3)
        assert lhs == pytest.approx(oracle, rel=1e-6)
        # the first derivatives of v, against central differences
        _, _, d_v_sq = gap_derivatives(ctx2, u, d1, d2, c)
        h = 1e-5
        fd1 = (w(h, 0) - w(-h, 0)) / (2 * h)
        fd2 = (w(0, h) - w(0, -h)) / (2 * h)
        assert d_v_sq == pytest.approx(fd1 * fd2, rel=1e-6)


def _benchmark_workloads():
    """perfbench/workloads.py of this checkout, loaded by path."""
    name = "_test_toda_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("seed, op", [(208, 87), (306, 600), (501, 219)])
def test_benchmark_ops_pass_their_second_difference_gates(seed, op):
    # a finite-difference left side missed these gates (genus 1 at seeds 208
    # and 501, genus 2 at seed 306)
    workloads = _benchmark_workloads()
    result = workloads.toda_op(workloads.toda_setup(seed), seed, op)
    assert result.failures == []
    assert max(result.residuals) < 1e-9


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_potential_cumulant_form_matches_the_quotient_form(seed):
    # V = d.kappa.d - (m11 - m10 m01) against the former quotient form
    # (D sigma / sigma)^2 - D^2 sigma / sigma of the same jet, whose terms
    # cancel: within 1e-13 of the largest quotient term (and of 1)
    workloads = _benchmark_workloads()
    state = workloads.toda_setup(seed)
    for k in range(30):
        n, t = workloads._site_time(state, workloads._op_rng(seed, k))
        for spec in state:
            frame = spec.frame
            ctx, d = frame.ctx, frame.direction
            for site, jet in zip(range(n - 1, n + 2), site_jets(frame, range(n - 1, n + 2), t)):
                sig, d_sig, _, dd_sig = jet[:4]
                first, second = (d_sig / sig) ** 2, dd_sig / sig
                v = _potential(jet, frame.curvature, site)
                assert abs(v - (first - second)) <= 1e-13 * max(1.0, abs(first), abs(second))


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_directional_jets_match_the_former_full_jet(seed):
    # every site of a toda op's window, on all four set-up frames: sigma and
    # the scale within 1e-14 (the mixed rows' theta plan is wider than the
    # 2-jet's); D sigma and D^2 sigma within 1e-12 of their
    # size; V within 1e-12 of max(1, |V|), as it cancels (D sigma / sigma)^2
    # against D^2 sigma / sigma (at |V| = 3.4e-3 these are 6.5 in size); the
    # exact left side from the window's moments within 1e-10 of max(1, |lhs|)
    workloads = _benchmark_workloads()
    state = workloads.toda_setup(seed)
    for k in range(30):
        n, t = workloads._site_time(state, workloads._op_rng(seed, k))
        for spec in state:
            frame = spec.frame
            ctx, d = frame.ctx, frame.direction
            jets = site_jets(frame, range(n - 1, n + 2), t)
            for site, jet in zip(range(n - 1, n + 2), jets):
                u = site_u(frame, site, t)
                ref = former_directional_jet(ctx, u, d, d)
                assert abs(jet[0] - ref[0]) <= 1e-14 * ref[4]
                assert abs(jet[4] - ref[4]) <= 1e-14 * ref[4]
                assert jet[1] == jet[2]
                for got, want in zip(jet[1:4], ref[1:4]):
                    assert abs(got - want) <= 1e-12 * abs(want)
                v = _potential(jet, frame.curvature, site)
                v_ref = former_potential(ctx, u, d)
                assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
            lhs = _log_gap(frame.curvature, jets[1][5], frame.v_c, n)[1]
            lhs_ref = former_log_gap_curvature(ctx, site_u(frame, n, t), d, d, frame.v_c)[1]
            assert abs(lhs - lhs_ref) <= 1e-10 * max(1.0, abs(lhs_ref))
            assert toda_residual_1d(frame, n, t) < 1e-9


def test_log_gap_curvature_matches_its_former_code(ctx1, ctx2):
    rng = np.random.default_rng(32)
    for ctx in (ctx1, ctx2):
        for _ in range(10):
            u = abel_map(ctx, random_curve_points(ctx.curve, rng, ctx.genus)).u
            d1, d2 = (direction_vector(complex(*rng.normal(size=2)), ctx.genus)
                      for _ in range(2))
            c = complex(rng.normal(), rng.normal())
            (v, lhs), (v_ref, lhs_ref) = (f(ctx, u, d1, d2, c) for f in (
                jet_log_gap, former_log_gap_curvature))
            assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
            assert abs(lhs - lhs_ref) <= 1e-10 * max(1.0, abs(lhs_ref))


def test_frame_constants_match_the_former_jet_code(ctx1, ctx2):
    # within 1e-12 relative, fixed before toda_frame read them from sigma_jet2
    for ctx in (ctx1, ctx2):
        rng = np.random.default_rng(60 + ctx.genus)
        for _ in range(5):
            v1 = random_curve_points(ctx.curve, rng, 1)[0]
            frame = toda_frame(ctx, v1, rng=rng)
            s_c, z_c = former_frame_constants(ctx, v1, frame.c)
            assert abs(frame.sigma_flat_c - s_c) <= 1e-12 * abs(s_c)
            assert abs(frame.zeta_c - z_c) <= 1e-12 * abs(z_c)


def test_vanishing_gap_is_a_typed_error():
    # V_c set to site 0's own V: the gap is roundoff, and the former code
    # returned a residual of 1.0 instead of naming the failure
    frame = _benchmark_workloads().toda_setup(3)[0].frame
    u = site_u(frame, 0)
    on_gap = dataclasses.replace(frame, v_c=V(frame, u))
    assert issubclass(VanishingGap, SigmaTodaError)
    with pytest.raises(VanishingGap):
        toda_residual_1d(on_gap, 0)
    d = frame.direction
    with pytest.raises(VanishingGap):
        jet_log_gap(frame.ctx, u, d, d, on_gap.v_c)
    # one gap away, both read numbers again
    assert toda_residual_1d(frame, 0) < 1e-9
    assert np.isfinite(jet_log_gap(frame.ctx, u, d, d, frame.v_c)[1])


def test_two_time_residual_makes_one_theta_pass(ctx2, monkeypatch):
    import importlib

    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return kernel(*args, **kwargs)

    rng = np.random.default_rng(6)
    v1, v2 = random_curve_points(ctx2.curve, rng, 2)
    u0 = abel_map(ctx2, random_curve_points(ctx2.curve, rng, 2)).u
    with monkeypatch.context() as patch:
        patch.setattr(sigma_mod, "_theta_sum", counted)
        r = toda2d_residual(ctx2, v1, v2, 0, 0.02, -0.01, u0=u0)
    assert calls == [(3, 2)]
    assert r < 1e-9

    # the former three log_gap_curvature passes read the same residual
    from sigmatoda.curves import baker_f2

    d1, d2 = direction_vector(v1.x, 2), direction_vector(v2.x, 2)
    c = abel_map(ctx2, [v1, v2]).u
    vhat_c = (baker_f2(ctx2.curve, v1.x, v2.x) - 2 * v1.y * v2.y) / (v1.x - v2.x) ** 2
    base = u0 + 0.02 * d1 - 0.01 * d2
    (v_lo, _), (v_n, lhs), (v_hi, _) = (
        former_log_gap_curvature(ctx2, base + k * c, d1, d2, vhat_c) for k in (-1, 0, 1))
    rhs = v_hi - 2 * v_n + v_lo
    assert abs(r - abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)) < 1e-10


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
    from sigmatoda.addition import reduce_divisor

    double = reduce_divisor(ctx1.curve, [frame.v1, frame.v1]).negated
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


def test_ode_residual_richardson_floor(ctx1, monkeypatch):
    rng = np.random.default_rng(12)
    frame = conditioned_frame(ctx1, rng)
    monkeypatch.setattr(importlib.import_module("sigmatoda.toda"), "FD_STEP", 1e-3)
    assert flaschka_ode_residual(frame, 2, 0.02) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_lax_checks_hold_for_any_state(n):
    # w = 2 w_hat - p_hat squares to P^2 - 4 prod(a) by construction, and
    # det(L - z) meets the recursion-built P for any (a, b): the two checks
    # certify the recursion and the branch choice, not the Toda flow
    rng = np.random.default_rng(40 + n)
    a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    state = TodaState(a, b)
    assert spectral_morphism(state)[0] < 1e-14
    assert lax_det_residual(state) < 1e-14


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
    mat = _lax_minus_z(state, [(0.0, 1.3 + 0.2j)])[0]
    assert mat.shape == (3, 3)


def test_flaschka_independent_of_truncation_policy(ctx2, monkeypatch):
    # the variables are curve data; a thousandfold tighter theta tolerance,
    # which widens every plan, must not move them
    rng = np.random.default_rng(15)
    frame = conditioned_frame(ctx2, rng)
    monkeypatch.setattr(importlib.import_module("sigmatoda.sigma"), "DEFAULT_TOL",
                        1e-3 * DEFAULT_TOL)
    # a fresh store, so that every pass is bound at the tighter tolerance
    wide = toda_frame(dataclasses.replace(ctx2), frame.v1, u0=frame.u0)
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


def _periodic_frame(ctx, order):
    """The frame of the real N-torsion point of largest x, N = ``order``."""
    from sigmatoda.division import torsion_to_frame, xi_set

    cand = max((c for c in xi_set(ctx.curve, order)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    return torsion_to_frame(ctx, cand, order)


def _periodic_state(ctx, order):
    return toda_state(_periodic_frame(ctx, order), order, 0.03)


def _lax_det_through_char_poly(state, samples=5):
    """The former determinant check: one draw, det and P(z) per sample."""
    from sigmatoda.toda import _horner

    rng = np.random.default_rng(7)
    data = char_poly(state)
    n = state.n_sites
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.normal(), rng.normal())
        w_hat = complex(rng.normal(), rng.normal()) + 2.0
        det = np.linalg.det(former_lax_matrix(state, w_hat) - z * np.eye(n))
        model = _horner(data.p_coeffs.tolist(), z) \
            + (-1.0) ** (n - 1) * (w_hat + data.prod_a / w_hat)
        worst = max(worst, abs(det - model) / max(1.0, abs(det)))
    return worst


def _spectral_morphism_per_sample(state):
    """The former spectral check: one draw and one P(z) per sample."""
    from sigmatoda.toda import _horner

    rng = np.random.default_rng(11)
    data = char_poly(state)
    n = state.n_sites
    worst = 0.0
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        p_hat = (-1.0) ** n * _horner(data.p_coeffs.tolist(), z)
        disc = np.sqrt(p_hat**2 - 4.0 * data.prod_a)
        w_hat = 0.5 * (p_hat + disc)
        if abs(w_hat) < 1e-8:
            w_hat = 0.5 * (p_hat - disc)
        w = 2.0 * w_hat - p_hat
        target = _horner(data.p_coeffs.tolist(), z) ** 2 - 4.0 * data.prod_a
        worst = max(worst, abs(w**2 - target) / max(1.0, abs(target)))
    return worst


def _magnitude_char_poly(state):
    """The recursion of P on |a| and |b| with every sign +, coefficient by coefficient.

    With a -> -|a| and b -> -|b| every term of every coefficient of P carries
    the sign (-1)^N, so |P| there is the all-plus recursion.
    """
    return np.abs(former_char_poly(TodaState(-np.abs(state.a), -np.abs(state.b))))


def test_stacked_lax_checks_equal_the_per_sample_loops(ctx1):
    from sigmatoda.toda import LAX_SAMPLES, TodaState

    rng = np.random.default_rng(21)
    states = [_periodic_state(ctx1, order) for order in (3, 4)]
    for _ in range(200):
        n = int(rng.integers(2, 9))
        scale = rng.choice([0.01, 1.0, 30.0])
        a, b = (scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
        states.append(TodaState(a, b))
    for state in states:
        # the one-expression builders against the per-entry loop and the
        # polyadd/polymul recursion they replaced
        assert _lax_minus_z(state, LAX_SAMPLES).tobytes() \
            == former_lax_minus_z(state, LAX_SAMPLES).tobytes()
        for _, w_hat in LAX_SAMPLES:
            assert _lax_minus_z(state, [(0.0, w_hat)])[0].tobytes() \
                == former_lax_matrix(state, w_hat).tobytes()
        # P on Python scalars against the polyadd/polymul recursion, within
        # 8 ulps of the same recursion on |a| and |b|: numpy's array product
        # may round differently from Python's in the last bit
        assert np.all(np.abs(char_poly(state).p_coeffs - former_char_poly(state))
                      <= 8 * 2.0**-52 * _magnitude_char_poly(state))
        det_res, morph_res = lax_det_residual(state), spectral_morphism(state)[0]
        assert np.float64(det_res).tobytes() \
            == np.float64(_lax_det_through_char_poly(state)).tobytes()
        assert np.float64(morph_res).tobytes() \
            == np.float64(_spectral_morphism_per_sample(state)).tobytes()


def test_char_poly_refuses_a_one_site_state():
    # P = det(block) - a_N det(inner) holds for N >= 2 only; at N = 1 it
    # would return a polynomial off by a_1
    state = TodaState(np.array([0.7 + 0.1j]), np.array([0.3 - 0.2j]))
    with pytest.raises(ValueError, match="at least two sites"):
        char_poly(state)
    with pytest.raises(ValueError, match="at least two sites"):
        _lax_minus_z(state, [(0.0, 1.3)])


def _branch_values_reference(state):
    """Roots of P^2 - 4 prod(a), sorted, from a fresh ``char_poly``."""
    from sigmatoda.polyutil import aberth_roots, as_poly, polyadd, polymul, trim

    data = char_poly(state)
    p, prod_a = data.p_coeffs, data.prod_a
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


def test_one_characteristic_polynomial_per_state(ctx1, monkeypatch):
    import sigmatoda.toda as toda_mod

    built = []

    def counted(state):
        built.append(state)
        return char_poly(state)

    for order in (3, 4):
        state = _periodic_state(ctx1, order)
        expected = (_lax_det_through_char_poly(state), _spectral_morphism_per_sample(state))
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(toda_mod, "char_poly", counted)
            det_res = lax_det_residual(state)
            morph_res, data = spectral_morphism(state)
        assert len(built) == 1 and built[0] is state
        assert data is state.spectral
        assert (det_res, morph_res) == expected


def test_toda_state_arrays_are_read_only(ctx1):
    state = _periodic_state(ctx1, 3)
    data = state.spectral
    for arr in (state.a, state.b):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert state.spectral is data
    # a state built by hand keeps read-only copies, which the caller's
    # arrays cannot reach
    a, b = np.ones(3, dtype=complex), np.arange(3, dtype=complex)
    hand = TodaState(a, b)
    with pytest.raises(ValueError):
        hand.b[0] = 1.0
    a[0] = 2.0
    assert hand.a[0] == 1.0 and a.flags.writeable


def _memo_frames(ctx1, ctx2):
    from sigmatoda.division import torsion_to_frame, xi_set

    rng = np.random.default_rng(16)
    cand = max((c for c in xi_set(ctx1.curve, 3)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    return [conditioned_frame(ctx1, rng, range(-1, 6)),
            conditioned_frame(ctx2, rng, range(-1, 6)),
            torsion_to_frame(ctx1, cand, 3)]


def _kept(frame):
    """The one time of a frame's memo and the set of sites it keeps at that time."""
    (t, jets), = frame._site_jets.items()
    return t, set(jets)


def test_site_jets_cost_one_theta_pass_per_site(ctx1, ctx2, monkeypatch):
    import importlib

    from sigmatoda.sigma import sigma, sigma_with_scale

    # the package attribute ``sigma`` is the function, not the module
    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        # points in the call: a stack of sites, or one point
        calls.append(len(args[1]) if np.ndim(args[1]) == 2 else 1)
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
        # a miss fills the window: the conditioning check asks for n-1..n+1,
        # so the pass sums n-2..n+2, which holds the second difference, the
        # bilinear form and flaschka's n..n+2; the 3-torsion frame also sums
        # its state's sites 1..N+2 in that pass, while a quasi-periodic frame
        # takes a second pass for the state's sites 1..5 and their
        # neighbours; each site is summed once
        sites = set(range(n - 2, n + 3))
        if frame.periodic is None:
            sites |= set(range(0, n_sites + 4))
            assert calls == [5, 4]
        else:
            sites |= set(range(1, n_sites + 3))
            assert calls == [8]
        assert _kept(frame) == (t, sites)

        # the memo's values are those of the former full jet along d: sigma
        # and the scale within 1e-14 of the scale (the plans of the mixed
        # rows, the 2-jet and the value differ), the derivatives within 1e-12
        d = frame.direction
        for site, jet in zip(sorted(sites), site_jets(frame, sorted(sites), t)):
            u = site_u(frame, site, t)
            ref = former_directional_jet(frame.ctx, u, d, d)
            value, scale = sigma_with_scale(frame.ctx, u)
            assert value == sigma(frame.ctx, u)
            for got in (jet[0], ref[0], value):
                assert abs(got - value) <= 1e-14 * scale
            for got in (jet[4], ref[4]):
                assert abs(got - scale) <= 1e-14 * scale
            for got, want in zip(jet[1:4], ref[1:4]):
                assert abs(got - want) <= 1e-12 * abs(want)
            assert flaschka_wp_path(frame, site - 1, t) == frame.v_c - V(frame, u)
        # and every check reads the same as on a frame with an empty memo
        assert toda_residual_1d(dataclasses.replace(frame), n, t) == results[0]
        assert hirota_residual(dataclasses.replace(frame), n, t) == results[1]
        assert flaschka(dataclasses.replace(frame), n, t) == results[2]
        assert flaschka_wp_path(dataclasses.replace(frame), n, t) == results[3]
        state = toda_state(dataclasses.replace(frame), n_sites, t)
        assert np.array_equal(state.a, results[4].a)
        assert np.array_equal(state.b, results[4].b)

        # a new time keeps only its own window: sites 1..3 and their
        # neighbours, and the state's 1..N+2 on the torsion frame
        flaschka(frame, 1, 0.05)
        stop = 5 if frame.periodic is None else n_sites + 3
        assert _kept(frame) == (0.05, set(range(0, stop)))


def test_site_jets_fill_only_the_neighbours_of_a_sparse_request(ctx1, ctx2, monkeypatch):
    import importlib

    sigma_mod = importlib.import_module("sigmatoda.sigma")
    kernel = sigma_mod._theta_sum
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return kernel(*args, **kwargs)

    t = 0.01 + 0.02j
    for frame in _memo_frames(ctx1, ctx2):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sigma_mod, "_theta_sum", counted)
            jets = site_jets(frame, [0, 12], t)
            # the union of the neighbourhoods, not the hull 0..12
            state_sites = set() if frame.periodic is None \
                else set(range(1, frame.periodic + 3))
            sites = {-1, 0, 1, 11, 12, 13} | state_sites
            assert calls == [len(sites)]
            assert _kept(frame) == (t, sites)
            # a neighbour is read from the memo, with no pass
            assert site_jets(frame, [13, -1], t)[0] == frame._site_jets[t][13]
            assert calls == [len(sites)]
        # each jet is that of an empty memo
        assert jets == site_jets(dataclasses.replace(frame), [0, 12], t)
        # a new time drops every site of the old one
        site_jets(frame, [12], 2 * t)
        assert _kept(frame) == (2 * t, {11, 12, 13} | state_sites)


def test_window_u_is_site_u_bit_for_bit(ctx1, ctx2, monkeypatch):
    # a window's u, built in one expression, is site_u at each of its sites
    toda_mod = importlib.import_module("sigmatoda.toda")
    kernel = toda_mod.sigma_jet2
    stacks = []

    def spy(ctx, u, d1, d2):
        stacks.append(np.array(u))
        return kernel(ctx, u, d1, d2)

    t = 0.01 + 0.02j
    for frame in _memo_frames(ctx1, ctx2):
        frame = dataclasses.replace(frame)
        stacks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(toda_mod, "sigma_jet2", spy)
            site_jets(frame, [-3, 0, 4, 9], t)
        sites = sorted(_kept(frame)[1])
        assert len(stacks) == 1 and len(sites) == len(stacks[0])
        for n, u in zip(sites, stacks[0]):
            assert u.tobytes() == site_u(frame, n, t).tobytes()


def test_toda_state_is_its_flaschka_pairs_from_one_pass(ctx1, monkeypatch):
    # the state reads the jets of sites 1..N+2 once and forms each pair with
    # flaschka's arithmetic: the bits of N flaschka calls, and one stacked
    # sigma_jet2 call per frame and time
    toda_mod = importlib.import_module("sigmatoda.toda")
    kernel, calls = toda_mod.sigma_jet2, []

    def counted(ctx, u, d1, d2):
        calls.append(len(u))
        return kernel(ctx, u, d1, d2)

    for order in (3, 4):
        frame = _periodic_frame(ctx1, order)
        assert frame.periodic == order
        for t in (0.0, 0.03 - 0.02j):
            fresh = dataclasses.replace(frame)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(toda_mod, "sigma_jet2", counted)
                state = toda_state(fresh, order, t)
                pairs = [flaschka(fresh, k, t) for k in range(1, order + 1)]
            # sites 0..N+3: the state's 1..N+2 and their neighbours
            assert calls == [order + 4]
            assert _kept(fresh) == (t, set(range(0, order + 4)))
            a, b = zip(*pairs)
            assert state.a.tobytes() == np.array(a).tobytes()
            assert state.b.tobytes() == np.array(b).tobytes()
            # each flaschka call on a frame of its own fills its own window
            for k, pair in enumerate(pairs, start=1):
                assert flaschka(dataclasses.replace(frame), k, t) == pair


def _record_bits(rec):
    return np.array([*rec[:5], *rec[5]], dtype=complex).tobytes()


def test_direction_constants_stay_bounded_and_keep_the_bits(ctx2):
    # the direction constants of a pass live in the context's store of bound
    # passes (sigma._bound), which keeps the last PASSES_KEPT of them
    from sigmatoda.sigma import PASSES_KEPT, _bound

    ctx = dataclasses.replace(ctx2)  # a context with no bound passes
    rng = np.random.default_rng(33)
    sizes = []
    for _ in range(3 * PASSES_KEPT):
        v1, v2 = random_curve_points(ctx.curve, rng, 2)
        try:
            toda2d_residual(ctx, v1, v2, 0, 0.01, -0.02, rng=rng)
        except SigmaTodaError:  # a draw near a pole has still made its pass
            pass
        sizes.append(len(ctx._passes))
    # each call's fresh pair of directions is one entry, the oldest dropped
    assert sizes[:PASSES_KEPT] == list(range(1, PASSES_KEPT + 1))
    assert set(sizes[PASSES_KEPT:]) == {PASSES_KEPT}
    # a hit is the kept pass, whose records and curvature have the bits of a
    # cleared store's
    d1, d2 = (direction_vector(x, 2) for x in (0.3 - 0.2j, -1.1 + 0.4j))
    u = 0.3 * (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
    sigma_jet2(ctx, u, d1, d2)
    assert _bound(ctx, 4, d1, d2) is _bound(ctx, 4, d1.copy(), d2.copy())
    hit, curvature = sigma_jet2(ctx, u, d1, d2), _bound(ctx, 4, d1, d2).curvature
    ctx._passes.clear()
    cleared = sigma_jet2(ctx, u, d1, d2)
    assert [_record_bits(r) for r in hit] == [_record_bits(r) for r in cleared]
    assert np.complex128(curvature).tobytes() \
        == np.complex128(_bound(ctx, 4, d1, d2).curvature).tobytes()


def test_a_non_finite_sigma_raises_a_typed_error(ctx1, ctx2):
    # on the genus-2 memo frame, sigma overflows from site 15 at this t
    frame = _memo_frames(ctx1, ctx2)[1]
    t = 0.01 + 0.02j
    with pytest.raises(NonFiniteValue):
        flaschka(dataclasses.replace(frame), 12, t)
    with pytest.raises(NonFiniteValue):
        site_jets(dataclasses.replace(frame), [16], t)
    # Python's max dropped this window's NaN and returned 0.0
    far = dataclasses.replace(frame, u0=frame.u0 + 10 * frame.c)
    with pytest.raises(NonFiniteValue):
        flaschka_ode_residual(far, 2, t)
    # sites 10..12 have finite records, but sigma_12 sigma_10 overflows
    fresh = dataclasses.replace(frame)
    assert all(np.isfinite(jet[0]) for jet in site_jets(fresh, [11], t))
    with pytest.raises(NonFiniteValue):
        flaschka(fresh, 10, t)
    # sigma and its 2-jet raise where sigma overflows, on the window's far
    # sites and on the far frame's, and never return NaN or 0
    d = frame.direction
    far_sites = [site_u(frame, n, t) for n in (15, 16, 20)] + [site_u(far, n, t)
                                                                for n in (5, 6)]
    for u in far_sites:
        for call in (lambda: sigma(frame.ctx, u), lambda: sigma_jet2(frame.ctx, u, d, d)):
            with pytest.raises(NonFiniteValue):
                call()
    # wp_matrix reads log theta past the envelope: finite where only the
    # envelope overflows (sites 15 and 16, and the far frame's 5 and 6), and
    # NonFiniteValue, not a RuntimeWarning, where the theta terms overflow
    for u in far_sites[:2] + far_sites[3:]:
        assert np.isfinite(wp_matrix(frame.ctx, u)).all()
    for n in (17, 20):
        with pytest.raises(NonFiniteValue):
            wp_matrix(frame.ctx, site_u(frame, n, t))


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
