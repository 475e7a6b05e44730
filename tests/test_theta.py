import dataclasses
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from box_theta import box_theta_sum as _box_theta_sum
from sigmatoda import theta as theta_mod
from sigmatoda.errors import NonFiniteValue, TruncationInsufficient
from sigmatoda.theta import (
    JET,
    _plan,
    _theta_sum,
    theta_char,
)

T1 = np.array([[10j]])
T_FAST = np.array([[0.3 + 1.1j]])
T2 = np.array([[-0.5 + 1.2139j, 0.5257j], [0.5257j, -0.5 + 0.6882j]])


def _radius(t_matrix, tol=1e-12):
    """The reach of the widest plan at (T, tol): the 2-jet with three mixed rows."""
    return _plan(np.asarray(t_matrix, dtype=complex), tol, 2, 3).extent


def theta_deriv(multi_index, a, b, z, t_matrix, radius=None, tol=1e-12):
    """Termwise partial derivative of theta in the z variables: a read of the kernel.

    ``multi_index`` lists 1-based coordinate labels, repetitions allowed, of
    order at most two; the empty tuple reproduces ``theta_char``.
    """
    idx = tuple(int(i) - 1 for i in multi_index)
    if any(i < 0 for i in idx):
        raise ValueError("multi_index entries are 1-based coordinate labels")
    if len(idx) > 2:
        raise NotImplementedError("theta derivatives of order > 2 not supported")
    # the jet's value, gradient or Hessian, indexed by idx
    radius = _radius(t_matrix, tol) if radius is None else radius
    return _theta_sum(JET[len(idx)], a, b, z, t_matrix, radius, tol)[len(idx)][idx]


def test_leading_term_dominates():
    val = theta_char([0.0], [0.0], [0.0], T1)
    assert val == pytest.approx(1.0, abs=1e-12)


def _value_and_l1(a, b, z, t_matrix):
    value, _, _, l1 = _theta_sum(JET[0], a, b, z, t_matrix, _radius(t_matrix), 1e-12)
    return value, l1


def test_odd_characteristic_vanishes_at_origin():
    for t in (T1, T_FAST):
        val, l1 = _value_and_l1([0.5], [0.5], [0.0], t)
        assert abs(val) < 1e-13 * l1
    # genus 2: [a; b] is odd exactly when 4 a.b is odd
    val2, l12 = _value_and_l1([0.5, 0.5], [0.5, 0.0], [0.0, 0.0], T2)
    assert abs(val2) < 1e-12 * l12
    even, l1e = _value_and_l1([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], T2)
    assert abs(even) > 1e-3 * l1e


def test_integer_b_shift_phase():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.choice([0.0, 0.5], size=2)
        b = rng.choice([0.0, 0.5], size=2)
        z = rng.normal(size=2) + 1j * rng.normal(size=2) * 0.3
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            lhs = theta_char(a, b, z + e, T2)
            rhs = np.exp(2j * np.pi * a[j]) * theta_char(a, b, z, T2)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_full_quasi_periodicity():
    rng = np.random.default_rng(1)
    a = np.array([0.5, 0.0])
    b = np.array([0.0, 0.5])
    z = rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.2
    for j in range(2):
        n = np.zeros(2)
        n[j] = 1.0
        lhs = theta_char(a, b, z + T2 @ n, T2)
        factor = np.exp(-2j * np.pi * (n @ b) - 1j * np.pi * (n @ T2 @ n)
                        - 2j * np.pi * (n @ z))
        rhs = factor * theta_char(a, b, z, T2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_zero_multi_index_equals_theta():
    z = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    a = np.array([0.5, 0.5])
    b = np.array([0.0, 0.5])
    assert theta_deriv((), a, b, z, T2) == pytest.approx(
        theta_char(a, b, z, T2), rel=1e-14)


def test_gradient_vanishes_at_even_characteristic_origin():
    val = theta_deriv((1,), [0.0], [0.0], [0.0], T_FAST)
    assert abs(val) < 1e-13


def test_termwise_derivative_matches_finite_difference():
    z = np.array([0.23 - 0.11j, 0.05 + 0.17j])
    a = np.array([0.5, 0.0])
    b = np.array([0.5, 0.5])
    h = 1e-5
    for j in (1, 2):
        e = np.zeros(2)
        e[j - 1] = 1.0
        fd = (theta_char(a, b, z + h * e, T2)
              - theta_char(a, b, z - h * e, T2)) / (2 * h)
        assert theta_deriv((j,), a, b, z, T2) == pytest.approx(fd, abs=1e-7)
    fd2 = (theta_char(a, b, z + h * np.array([1, 0]) + h * np.array([0, 1]), T2)
           - theta_char(a, b, z + h * np.array([1, 0]) - h * np.array([0, 1]), T2)
           - theta_char(a, b, z - h * np.array([1, 0]) + h * np.array([0, 1]), T2)
           + theta_char(a, b, z - h * np.array([1, 0]) - h * np.array([0, 1]), T2)
           ) / (4 * h * h)
    assert theta_deriv((1, 2), a, b, z, T2) == pytest.approx(fd2, rel=2e-6)


def test_truncation_insufficient_raised():
    with pytest.raises(TruncationInsufficient):
        theta_char([0.0], [0.0], [2.5j], T_FAST, radius=1)
    for deriv in JET:
        for args in (([0.0], [0.0], [2.5j], T_FAST),
                     ([0.5, 0.0], [0.0, 0.5], [0.3j, -0.2j], T2)):
            with pytest.raises(TruncationInsufficient):
                _theta_sum(deriv, *args, 1, 1e-12)


def test_overflowing_terms_raise_a_typed_error():
    # 15 T from the origin the terms overflow and the tail test, False for
    # NaN, passed: theta returned nan+nanj with RuntimeWarnings only
    t = [[0.3 + 1.1j]]
    assert np.isfinite(theta_char([0], [0], [0.1 + 10 * t[0][0]], t))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteValue):
            theta_char([0], [0], [0.1 + 15 * t[0][0]], t)
        # a stack raises for its one overflowing point
        for deriv in JET:
            with pytest.raises(NonFiniteValue, match="overflow"):
                _theta_sum(deriv, [0], [0], [[0.1], [0.1 + 15 * t[0][0]]], t, 8, 1e-12)


def test_recentering_keeps_shifted_arguments_accurate():
    # moderate imaginary shifts need no larger plan: the box reference with a
    # wide radius agrees within 1e-12 of its L1 mass
    z0 = np.array([0.1 + 0.05j])
    for shift in (3.0 + 2.0j, -1.0 - 4.5j):
        z = z0 + shift
        ref, _, _, l1 = _box_theta_sum(JET[0], [0.5], [0.5], z, T_FAST, 30, 1e-15)
        assert abs(theta_char([0.5], [0.5], z, T_FAST) - ref) <= 1e-12 * l1


def test_theta_deriv_rejects_order_three():
    with pytest.raises(NotImplementedError):
        theta_deriv((1, 1, 1), [0.0], [0.0], [0.1], T_FAST)


def _per_index_theta_sum(deriv, a, b, z, t_matrix, radius, tol):
    """One box sum per multi-index, with the reference's tail check.

    ``deriv`` lists 0-based coordinates, or z-directions w for the moments
    along them; returns (value, L1 of the terms).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = z.size
    center = np.round(-a - np.linalg.solve(t_matrix.imag, (z + b).imag))
    n = np.stack([grid.ravel() for grid in np.meshgrid(
        *([np.arange(-radius, radius + 1)] * g), indexing="ij")], axis=1) + center
    na = n + a
    quad = 0.5 * np.einsum("ki,ij,kj->k", na, t_matrix, na)
    lin = na @ (z + b)
    terms = np.exp(2j * np.pi * (quad + lin))
    prefactor = np.ones(terms.size, dtype=complex)
    for idx in deriv:
        if np.ndim(idx):
            prefactor = prefactor * ((2j * np.pi * na) @ np.asarray(idx, dtype=complex))
        else:
            prefactor = prefactor * (2j * np.pi * na[:, idx])
    terms = prefactor * terms
    value = terms.sum()
    l1 = float(np.abs(terms).sum())
    shell = np.max(np.abs(n - center), axis=1) >= radius
    tail = float(np.max(np.abs(terms[shell]))) * float(np.sum(shell))
    if tail > tol * max(l1, 1e-300):
        raise TruncationInsufficient("reference tail")
    return value, l1


def _half_characteristics(g):
    halves = list(itertools.product((0.0, 0.5), repeat=g))
    return [(np.array(a), np.array(b)) for a in halves for b in halves]


# the reference sums a wide box at tol 1e-15; the plan's truncation is within
# tol = 1e-12 of each row's L1 mass, so rows agree within 2e-12 of it
REF_RADIUS, MATCH = 12, 2e-12


def _rows_close(got, want, l1):
    return abs(got - want) <= MATCH * l1


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_kernel_matches_the_box_reference(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(17)
    points = [np.zeros(g, dtype=complex)] + [
        rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.4 for _ in range(3)]
    for a, b in _half_characteristics(g):
        for z in points:
            def ref(deriv):
                return _per_index_theta_sum(deriv, a, b, z, t_matrix, REF_RADIUS, 1e-15)

            ref_value, ref_l1 = ref(())
            for order in (0, 1, 2):
                value, grad, hess, l1 = _theta_sum(JET[order], a, b, z, t_matrix,
                                                   _radius(t_matrix), 1e-12)
                assert _rows_close(value, ref_value, ref_l1)
                assert abs(l1 - ref_l1) <= MATCH * ref_l1
                if order == 0:
                    assert grad is None
                else:
                    assert grad.shape == (g,)
                    for k in range(g):
                        assert _rows_close(grad[k], *ref((k,)))
                if order < 2:
                    assert hess is None
                else:
                    assert hess.shape == (g, g)
                    assert np.array_equal(hess, hess.T)
                    for k, m in itertools.product(range(g), repeat=2):
                        assert _rows_close(hess[k, m], *ref((k, m)))


@pytest.fixture
def plans_at_1e12(monkeypatch):
    """Every pass sums the widest plan built at tol 1e-12, whatever tol it asks for.

    The proven bound keeps its 1e-12 and the shell estimate meets the
    call's tol, so a call's tol sets where the measured check fails; every
    row layout sums the same ellipsoid.
    """
    built = theta_mod._plan

    def fixed(t_matrix, tol, order, n_mixed=0):
        widest = built(t_matrix, 1e-12, 2, 3)
        plan = built(t_matrix, 1e-12, order, n_mixed)
        return dataclasses.replace(plan, points=widest.points, shell=widest.shell,
                                   s=widest.s, quad=widest.quad,
                                   extent=widest.extent, radius=widest.radius)

    monkeypatch.setattr(theta_mod, "_plan", fixed)


def _threshold(call):
    """The tol below which ``call(tol)`` raises TruncationInsufficient, in log10."""
    lo, hi = -60.0, -12.0  # raises at 10**lo, passes at 10**hi
    call(10.0**hi)
    with pytest.raises(TruncationInsufficient):
        call(10.0**lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        try:
            call(10.0**mid)
            hi = mid
        except TruncationInsufficient:
            lo = mid
    return hi


@pytest.mark.parametrize("args, failing", [
    (([0.0], [0.0], [0.1], T_FAST), 1),
    (([0.5, 0.0], [0.0, 0.0], [0.2j, 0.2j], T2), 2),
], ids=["gradient", "hessian"])
def test_derivative_moments_keep_their_own_tail_check(plans_at_1e12, args, failing):
    # on one ellipsoid, the derivative rows' shell estimates fail at a tol
    # where the lower orders' rows still pass
    radius = _radius(args[3])

    def call(order):
        return lambda tol: _theta_sum(JET[order], *args, radius, tol)

    lower, higher = _threshold(call(failing - 1)), _threshold(call(failing))
    assert higher > lower + 0.3
    tol = 10.0 ** (0.5 * (lower + higher))
    call(failing - 1)(tol)
    with pytest.raises(TruncationInsufficient):
        call(failing)(tol)


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_mixed_moments_are_direct_sums_and_leave_the_jet_alone(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(18)
    radius = _radius(t_matrix)
    for a, b in _half_characteristics(g):
        z = rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.4
        w1, w2 = (rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(2))

        def ref(deriv):
            return _per_index_theta_sum(deriv, a, b, z, t_matrix, REF_RADIUS, 1e-15)

        for pair in ((w1, w2), (w1, w1), (w1, w1.copy())):
            value, grad, hess, l1, mixed = _theta_sum(
                JET[2], a, b, z, t_matrix, radius, 1e-12, mixed=pair)
            jet = _theta_sum(JET[2], a, b, z, t_matrix, radius, 1e-12)
            ref_value, ref_l1 = ref(())
            assert _rows_close(value, jet[0], ref_l1) and _rows_close(value, ref_value, ref_l1)
            assert abs(l1 - jet[3]) <= MATCH * ref_l1
            for k in range(g):
                assert _rows_close(grad[k], jet[1][k], ref((k,))[1])
                for m in range(g):
                    assert _rows_close(hess[k, m], jet[2][k, m], ref((k, m))[1])
            wa, wb = pair
            for got, deriv in zip(mixed, ((wa, wa, wb), (wa, wb, wb), (wa, wa, wb, wb))):
                assert _rows_close(got, *ref(deriv))
            if pair[0] is pair[1] or np.array_equal(*pair):
                # one direction: the rows (2, 1) and (1, 2) are one row
                assert mixed[0] == mixed[1]


def test_mixed_moments_keep_their_own_tail_check(plans_at_1e12):
    # on one ellipsoid, a mixed moment's shell estimate fails at a tol where
    # the 2-jet's rows still pass
    w1, w2 = np.array([2.0, -1.0 + 0.5j]), np.array([1.5j, 2.0])
    args = ([0.5, 0.0], [0.0, 0.0], [0.2j, 0.2j], T2, _radius(T2))
    jet = _threshold(lambda tol: _theta_sum(JET[2], *args, tol))
    mixed = _threshold(lambda tol: _theta_sum(JET[2], *args, tol, mixed=(w1, w2)))
    assert mixed > jet + 0.3
    tol = 10.0 ** (0.5 * (jet + mixed))
    _theta_sum(JET[2], *args, tol)
    with pytest.raises(TruncationInsufficient):
        _theta_sum(JET[2], *args, tol, mixed=(w1, w2))


def _bits(x):
    return None if x is None else np.asarray(x).tobytes()


def _centre_offsets(a, b, z, t_matrix):
    """The centre offset ca of each point of a stack z, as ``_theta_sum`` rounds it."""
    shift = (np.atleast_2d(z) + b).imag @ np.linalg.inv(np.asarray(t_matrix).imag)
    return a - np.rint(shift + a)


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_stacked_points_keep_the_bits_of_their_own_calls(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(19)
    radius = _radius(t_matrix)
    points = rng.normal(size=(6, g)) * 0.6 + 1j * rng.normal(size=(6, g)) * 0.4
    w = tuple(rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(2))
    # a stack whose points share one centre offset sums one broadcast block
    near = points[0] + 1e-3 * rng.normal(size=(3, g))
    for a, b in _half_characteristics(g):
        assert len({c.tobytes() for c in _centre_offsets(a, b, near, t_matrix)}) == 1
        for order, mixed in itertools.product((0, 1, 2), (None, w, (w[0], w[0]))):
            n_mixed = 0 if mixed is None else 2 if mixed[0] is mixed[1] else 3
            plan = _plan(np.asarray(t_matrix, dtype=complex), 1e-12, order, n_mixed)

            def call(z):
                return _theta_sum(JET[order], a, b, z, t_matrix, radius, 1e-12,
                                  mixed=mixed)

            stacks = [(points, rows) for size in range(1, 7)
                      for rows in (list(range(size)), list(range(size))[::-1])]
            for stack_points, rows in [*stacks, (near, [0, 1, 2])]:
                singles = [call(z) for z in stack_points]
                # on the table the singles warmed, then on a cleared one
                warm = call(stack_points[rows])
                plan.blocks.clear()
                cold = call(stack_points[rows])
                assert len(warm) == len(singles[0])
                for pos, row in enumerate(rows):
                    assert [None if x is None else _bits(x[pos]) for x in warm] \
                        == [_bits(x) for x in singles[row]]
                assert [_bits(x) for x in warm] == [_bits(x) for x in cold]
            # an empty stack sums nothing
            assert [None if x is None else x.shape[0] for x in call(points[:0])] \
                == [None if x is None else 0 for x in singles[0]]


def test_the_row_block_tables_stay_bounded():
    # fresh direction pairs (seeded two-time residuals) and points shifted by
    # T m for growing m, a new centre offset on every pass, are the two
    # sources of new keys
    from sigmatoda.curves import make_curve, random_curve_points
    from sigmatoda.errors import SigmaTodaError
    from sigmatoda.sigma import sigma_context
    from sigmatoda.toda import toda2d_residual

    def tables():
        return [plan.blocks for plan in plans]

    ctx2 = sigma_context(make_curve(2, [1, 0, 0, 0, 0]))
    rng = np.random.default_rng(31)
    t_matrix = ctx2.periods.riemann
    plans = [_plan(t_matrix, ctx2.tol, order, n_mixed)
             for order, n_mixed in ((0, 0), (1, 0), (2, 0), (2, 2), (2, 3))]
    for _ in range(theta_mod.PAIRS_KEPT + 4):
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        try:
            toda2d_residual(ctx2, v1, v2, 0, 0.01, 0.02, rng=rng)
        except SigmaTodaError:  # a draw near a pole has still made its pass
            pass
        for table in tables():
            assert len(table) <= theta_mod.PAIRS_KEPT
            assert all(len(slots) <= theta_mod.OFFSETS_KEPT
                       for *_, slots in table.values())
    assert len(plans[4].blocks) == theta_mod.PAIRS_KEPT
    a, b = ctx2.chars.a, ctx2.chars.b
    z0 = np.array([[0.1 + 0.05j, -0.2 + 0.1j], [0.3 - 0.1j, 0.05 + 0.02j]])
    w = (np.array([1.0, 0.4j]), np.array([0.3, 1.0 + 0.2j]))
    # every m of a growing square, (0, 0) first: far more offsets than a pair keeps
    shifts = sorted(itertools.product(range(-5, 6), repeat=2), key=lambda m: max(map(abs, m)))
    assert len(shifts) > 3 * theta_mod.OFFSETS_KEPT
    for order, mixed in ((0, None), (1, None), (2, None), (2, w)):
        def call(m):
            # the first point keeps its offset, a hit beside each new one
            z = z0 + [np.zeros(2), t_matrix @ np.array(m, dtype=float)]
            return _theta_sum(JET[order], a, b, z, t_matrix, ctx2.trunc_radius,
                              ctx2.tol, mixed=mixed)

        first = call(shifts[0])
        for m in shifts[1:]:
            call(m)
            for table in tables():
                assert len(table) <= theta_mod.PAIRS_KEPT
                assert all(len(slots) <= theta_mod.OFFSETS_KEPT
                           for *_, slots in table.values())
        # the second point's offset at m = (0, 0) is long evicted: the pass
        # builds it again, bit for bit
        assert [_bits(x) for x in call(shifts[0])] == [_bits(x) for x in first]
    # a pass with more distinct offsets than a pair keeps builds its own blocks
    wide = z0[0] + np.array([t_matrix @ np.array(m, dtype=float)
                             for m in shifts[:theta_mod.OFFSETS_KEPT + 4]])
    stack = _theta_sum(JET[2], a, b, wide, t_matrix, ctx2.trunc_radius, ctx2.tol, mixed=w)
    for k, z in enumerate(wide):
        single = _theta_sum(JET[2], a, b, z, t_matrix, ctx2.trunc_radius, ctx2.tol, mixed=w)
        assert [_bits(x[k]) for x in stack] == [_bits(x) for x in single]
    assert all(len(slots) <= theta_mod.OFFSETS_KEPT for table in tables()
               for *_, slots in table.values())


@pytest.mark.parametrize("args, good, bad", [
    # the rounding offset of the centre: near 0 for the good points, near 1/2
    # for the bad one, whose shell holds the larger terms
    (([0.0], [0.0], T_FAST), [[0.1 + 0.02j], [-0.3 - 0.01j]], [0.1 + 0.55j]),
    (([0.5, 0.0], [0.0, 0.0], T2), [[-0.607j, -0.263j], [0.3 - 0.59j, 0.02 - 0.25j]],
     [0.3 + 0.2455j, 0.3319j]),
], ids=["genus1", "genus2"])
def test_one_failing_point_fails_its_stack(plans_at_1e12, args, good, bad):
    a, b, t_matrix = args
    radius = _radius(t_matrix)
    for order in (0, 1, 2):
        def call(z):
            return lambda tol: _theta_sum(JET[order], a, b, np.array(z), t_matrix, radius, tol)

        worst_good = max(_threshold(call(z)) for z in good)
        at_bad = _threshold(call(bad))
        assert at_bad > worst_good + 0.3
        tol = 10.0 ** (0.5 * (worst_good + at_bad))
        for z in good:
            call(z)(tol)
        with pytest.raises(TruncationInsufficient):
            call(bad)(tol)
        for stack in ([*good, bad], [bad, *good], [good[0], bad, good[1]]):
            with pytest.raises(TruncationInsufficient):
                call(stack)(tol)


def _random_siegel(rng, g, max_cond=10.0):
    """T = X + iY with X uniform in [-1/2, 1/2] and cond(Y) at most max_cond."""
    x = rng.uniform(-0.5, 0.5, size=(g, g))
    q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    lam = np.exp(rng.uniform(0.0, math.log(max_cond), size=g)) * rng.uniform(0.4, 1.5)
    lam[0] = lam.max() / max_cond if g > 1 and rng.uniform() < 0.5 else lam[0]
    y = q @ np.diag(lam) @ q.T
    return 0.5 * (x + x.T) + 1j * 0.5 * (y + y.T)


@pytest.mark.parametrize("g", [1, 2])
def test_seeded_siegel_sweep_matches_the_box_reference(g):
    # every row, and the mixed rows along two random directions, within 2e-12
    # of the row's L1 mass of the box reference at radius REF_RADIUS + 6
    rng = np.random.default_rng(100 + g)
    for _ in range(12):
        t_matrix = _random_siegel(rng, g)
        assert np.linalg.cond(t_matrix.imag) <= 10.0 + 1e-9
        radius = _radius(t_matrix)
        for _ in range(3):
            a, b = (rng.choice([0.0, 0.5], size=g) for _ in range(2))
            z = rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.5
            w = tuple(rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(2))

            def ref(deriv):
                return _per_index_theta_sum(deriv, a, b, z, t_matrix, REF_RADIUS + 6, 1e-15)

            value, grad, hess, l1, mixed = _theta_sum(JET[2], a, b, z, t_matrix, radius,
                                                      1e-12, mixed=w)
            assert _rows_close(value, *ref(()))
            for k in range(g):
                assert _rows_close(grad[k], *ref((k,)))
                for m in range(g):
                    assert _rows_close(hess[k, m], *ref((k, m)))
            for got, deriv in zip(mixed, ((w[0], w[0], w[1]), (w[0], w[1], w[1]),
                                          (w[0], w[0], w[1], w[1]))):
                assert _rows_close(got, *ref(deriv))
            for order in (0, 1):
                low = _theta_sum(JET[order], a, b, z, t_matrix, radius, 1e-12)
                assert _rows_close(low[0], *ref(()))


@pytest.mark.parametrize("g", [1, 2])
def test_proven_bound_covers_the_omitted_tail(g):
    # the omitted terms' L1 mass, summed over a wide box about the same
    # centre, is at most the plan's bound E sum_p coef c^p for every row order
    rng = np.random.default_rng(200 + g)
    for _ in range(12):
        t_matrix = _random_siegel(rng, g)
        y = t_matrix.imag
        plan = _plan(t_matrix, 1e-12, 2, 3)
        inside = {tuple(m) for m in plan.points.astype(int).tolist()}
        wide = np.array(list(itertools.product(range(-plan.extent - 8, plan.extent + 9),
                                               repeat=g)), dtype=float)
        outside = wide[[tuple(m) not in inside for m in wide.astype(int).tolist()]]
        for _ in range(3):
            a = rng.choice([0.0, 0.5], size=g)
            z = rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.5
            shift = np.linalg.solve(y, z.imag)
            na = outside + np.round(-a - shift) + a
            # |term| = E exp(-pi x^T Y x), x = n + a + Y^-1 Im z
            x = na + shift
            mod = np.exp(np.pi * z.imag @ shift - np.pi * np.einsum("ki,ij,kj->k", x, y, x))
            bounds = plan.coef @ np.linalg.norm(shift) ** np.arange(5.0)
            unit = np.linalg.norm(na, axis=1)  # |2 pi (n+a).w| <= 2 pi |n+a| for |w| = 1
            for order in range(5):
                omitted = float(np.sum(mod * (2 * np.pi * unit) ** order))
                assert omitted <= math.exp(np.pi * z.imag @ shift) * bounds[order]


@pytest.mark.parametrize("g", [1, 2])
def test_a_plan_beyond_the_radius_raises(g):
    rng = np.random.default_rng(300 + g)
    for _ in range(4):
        t_matrix = _random_siegel(rng, g)
        z = rng.normal(size=g) * 0.3
        for order in (0, 1, 2):
            extent = _plan(t_matrix, 1e-12, order).extent
            _theta_sum(JET[order], np.zeros(g), np.zeros(g), z, t_matrix, extent, 1e-12)
            with pytest.raises(TruncationInsufficient):
                _theta_sum(JET[order], np.zeros(g), np.zeros(g), z, t_matrix, extent - 1,
                           1e-12)


def test_plans_are_cached_and_read_only():
    plan = _plan(T2, 1e-12, 2)
    assert _plan(T2.copy(), 1e-12, 2) is plan
    assert _plan(T2, 1e-12, 2, 3) is not plan
    for arr in (plan.points, plan.s, plan.quad, plan.yinv, plan.coef, plan.row_coef,
                plan.hess_rows):
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    # the ellipsoid holds fewer points than the former box of radius 7
    assert len(plan.points) < 15 ** 2
    assert np.allclose(plan.yinv @ T2.imag, np.eye(2))


def test_contexts_and_a_toda_frame_import_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from sigmatoda import verify\n"
        "from sigmatoda.curves import random_curve_points\n"
        "from sigmatoda.toda import toda_frame\n"
        "ctx1, ctx2 = verify.canonical_contexts()\n"
        "v1 = random_curve_points(ctx1.curve, np.random.default_rng(5), 1)[0]\n"
        "frame = toda_frame(ctx1, v1, rng=np.random.default_rng(6))\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
