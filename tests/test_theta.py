import itertools

import numpy as np
import pytest

from sigmatoda.errors import TruncationInsufficient
from sigmatoda.theta import (
    JET,
    _theta_sum,
    suggested_radius,
    theta_char,
)

T1 = np.array([[10j]])
T_FAST = np.array([[0.3 + 1.1j]])
T2 = np.array([[-0.5 + 1.2139j, 0.5257j], [0.5257j, -0.5 + 0.6882j]])


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
    return _theta_sum(JET[len(idx)], a, b, z, t_matrix, radius, tol)[len(idx)][idx]


def test_leading_term_dominates():
    val = theta_char([0.0], [0.0], [0.0], T1)
    assert val == pytest.approx(1.0, abs=1e-12)


def _value_and_l1(a, b, z, t_matrix):
    value, _, _, l1 = _theta_sum(JET[0], a, b, z, t_matrix, None, 1e-12)
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


def test_recentering_keeps_shifted_arguments_accurate():
    # moderate imaginary shifts should not need a larger radius
    z0 = np.array([0.1 + 0.05j])
    shift = np.array([3.0 + 2.0j])
    r = suggested_radius(T_FAST)
    ref = theta_char([0.5], [0.5], z0 + shift, T_FAST, radius=r + 12)
    val = theta_char([0.5], [0.5], z0 + shift, T_FAST, radius=r)
    assert val == pytest.approx(ref, rel=1e-10)


def test_theta_deriv_rejects_order_three():
    with pytest.raises(NotImplementedError):
        theta_deriv((1, 1, 1), [0.0], [0.0], [0.1], T_FAST)


def _per_index_theta_sum(deriv, a, b, z, t_matrix, radius, tol):
    """One lattice sum per multi-index: the kernel's reference.

    ``deriv`` lists 0-based coordinates, or z-directions w for the moments
    along them; returns (value, L1 of the terms).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t_matrix = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    g = z.size
    if radius is None:
        radius = suggested_radius(t_matrix, tol)
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


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_kernel_matches_per_index_sums_bit_for_bit(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(17)
    radius = suggested_radius(t_matrix)
    points = [np.zeros(g, dtype=complex)] + [
        rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.4 for _ in range(3)]
    for a, b in _half_characteristics(g):
        for z in points:
            def ref(deriv):
                return _per_index_theta_sum(deriv, a, b, z, t_matrix, radius, 1e-12)

            ref_value, ref_l1 = ref(())
            for order in (0, 1, 2):
                value, grad, hess, l1 = _theta_sum(JET[order], a, b, z, t_matrix,
                                                   radius, 1e-12)
                assert value == ref_value
                assert l1 == ref_l1
                if order == 0:
                    assert grad is None
                else:
                    assert grad.shape == (g,)
                    for k in range(g):
                        assert grad[k] == ref((k,))[0]
                if order < 2:
                    assert hess is None
                else:
                    assert hess.shape == (g, g)
                    for k, m in itertools.product(range(g), repeat=2):
                        assert hess[k, m] == ref((k, m))[0]


@pytest.mark.parametrize("args, failing", [
    # radius 3: the value's tail is within tol and the gradient's is not
    (([0.0], [0.0], [0.1], T_FAST, 3, 1e-12), 1),
    # radius 5: the value's and the gradient's tails are within tol and a
    # Hessian entry's is not
    (([0.5, 0.0], [0.0, 0.0], [0.2j, 0.2j], T2, 5, 1e-12), 2),
], ids=["gradient", "hessian"])
def test_derivative_moments_keep_their_own_tail_check(args, failing):
    g = len(args[2])
    moments = [[()], [(k,) for k in range(g)],
               list(itertools.product(range(g), repeat=2))]
    for indices in moments[:failing]:
        for idx in indices:
            _per_index_theta_sum(idx, *args)
    with pytest.raises(TruncationInsufficient):
        for idx in moments[failing]:
            _per_index_theta_sum(idx, *args)
    _theta_sum(JET[failing - 1], *args)
    with pytest.raises(TruncationInsufficient):
        _theta_sum(JET[failing], *args)


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_mixed_moments_are_direct_sums_and_leave_the_jet_alone(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(18)
    radius = suggested_radius(t_matrix)
    for a, b in _half_characteristics(g):
        z = rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.4
        w1, w2 = (rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(2))

        def ref(deriv):
            return _per_index_theta_sum(deriv, a, b, z, t_matrix, radius, 1e-12)[0]

        value, grad, hess, l1, mixed = _theta_sum(
            JET[2], a, b, z, t_matrix, radius, 1e-12, mixed=(w1, w2))
        jet = _theta_sum(JET[2], a, b, z, t_matrix, radius, 1e-12)
        assert (value, l1) == (jet[0], jet[3]) and value == ref(())
        assert np.array_equal(grad, jet[1]) and np.array_equal(hess, jet[2])
        assert [grad[k] for k in range(g)] == [ref((k,)) for k in range(g)]
        assert mixed.tolist() == [ref((w1, w1, w2)), ref((w1, w2, w2)),
                                  ref((w1, w1, w2, w2))]


def test_mixed_moments_keep_their_own_tail_check():
    # radius 5: the 2-jet's tails are within tol and a mixed moment's is not
    w1, w2 = np.array([2.0, -1.0 + 0.5j]), np.array([1.5j, 2.0])
    args = ([0.5, 0.0], [0.0, 0.0], [0.2j, 0.2j], T2, 5, 1e-11)
    _theta_sum(JET[2], *args)
    with pytest.raises(TruncationInsufficient):
        _per_index_theta_sum((w1, w1, w2, w2), *args)
    with pytest.raises(TruncationInsufficient):
        _theta_sum(JET[2], *args, mixed=(w1, w2))


def _bits(x):
    return None if x is None else np.asarray(x).tobytes()


@pytest.mark.parametrize("t_matrix", [T_FAST, T2], ids=["genus1", "genus2"])
def test_stacked_points_keep_the_bits_of_their_own_calls(t_matrix):
    g = t_matrix.shape[0]
    rng = np.random.default_rng(19)
    radius = suggested_radius(t_matrix)
    points = rng.normal(size=(6, g)) * 0.6 + 1j * rng.normal(size=(6, g)) * 0.4
    w = tuple(rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(2))
    for a, b in _half_characteristics(g):
        for order, mixed in itertools.product((0, 1, 2), (None, w)):
            def call(z):
                return _theta_sum(JET[order], a, b, z, t_matrix, radius, 1e-12,
                                  mixed=mixed)

            singles = [call(z) for z in points]
            for size in range(1, 7):
                for rows in (list(range(size)), list(range(size))[::-1]):
                    stack = call(points[rows])
                    assert len(stack) == len(singles[0])
                    for pos, row in enumerate(rows):
                        assert [None if x is None else _bits(x[pos]) for x in stack] \
                            == [_bits(x) for x in singles[row]]


@pytest.mark.parametrize("args, good, bad", [
    (([0.0], [0.0]), [[0.1 + 1.1j], [-0.3 + 1.1j]], [0.1 + 0.5j]),
    (([0.5, 0.0], [0.0, 0.0]), [[0.4j, 0.2j], [0.3 + 0.4j, 0.2j]], [0.0, 0.2j]),
], ids=["genus1", "genus2"])
def test_one_failing_point_fails_its_stack(args, good, bad):
    t_matrix, radius = (T_FAST, 3) if len(bad) == 1 else (T2, 5)
    for order in (0, 1, 2):
        for z in good:
            _theta_sum(JET[order], *args, z, t_matrix, radius, 1e-12)
        with pytest.raises(TruncationInsufficient):
            _theta_sum(JET[order], *args, bad, t_matrix, radius, 1e-12)
        for stack in ([*good, bad], [bad, *good], [good[0], bad, good[1]]):
            with pytest.raises(TruncationInsufficient):
                _theta_sum(JET[order], *args, np.array(stack), t_matrix, radius, 1e-12)
