import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from sigmatoda.curves import make_curve
import sigmatoda.periods as periods_mod
from sigmatoda.errors import QuadratureNonConvergence
from sigmatoda.periods import (
    _continuous_sqrt,
    _refine,
    build_cycles,
    compute_periods,
    legendre_residual,
    second_kind_numerator,
)


@pytest.fixture(scope="module")
def g1():
    curve = make_curve(1, [0, -1, 0])
    return curve, compute_periods(curve)


@pytest.fixture(scope="module")
def g2():
    curve = make_curve(2, [1, 0, 0, 0, 0])
    return curve, compute_periods(curve)


def test_second_kind_diff_genus1_classical():
    # for y^2 = x^3 - x the only second-kind numerator is lambda_3 x = x
    curve = make_curve(1, [0, -1, 0])
    assert np.allclose(second_kind_numerator(curve, 1), [0, 1])


def test_second_kind_diff_genus2_top_form():
    curve = make_curve(2, [1, 0, 0, 0, 0])
    assert np.allclose(second_kind_numerator(curve, 2), [0, 0, 1])
    num1 = second_kind_numerator(curve, 1)  # lam3 x + 2 lam4 x^2 + 3 x^3
    assert np.allclose(num1, [0, 0, 0, 3.0])


def test_second_kind_diff_index_contract():
    curve = make_curve(1, [0, -1, 0])
    with pytest.raises(ValueError):
        second_kind_numerator(curve, 2)


def test_build_cycles_deterministic(g1):
    curve, _ = g1
    assert np.array_equal(build_cycles(curve), build_cycles(curve))
    # genus 1: alpha around segment 0, {-1, 0}; beta around segment 1, {0, 1}
    assert np.allclose(build_cycles(curve), [-1, 0, 1])


def test_legendre_certificate_genus1(g1):
    _, pd = g1
    assert pd.legendre_residual < 1e-10


def test_legendre_certificate_genus2(g2):
    _, pd = g2
    assert pd.legendre_residual < 1e-8


def test_omega1_matches_independent_quadrature(g1):
    # alpha loop encircles [-1, 0]; on that segment x^3 - x > 0
    _, pd = g1
    oracle, err = quad(lambda t: 1.0 / (2.0 * np.sqrt(t**3 - t)), -1.0, 0.0)
    assert err < 1e-9
    assert abs(abs(pd.omega1[0, 0]) - abs(oracle)) < 1e-10


def test_riemann_matrix_properties(g2):
    _, pd = g2
    t = pd.riemann
    assert np.max(np.abs(t - t.T)) < 1e-8
    eigs = np.linalg.eigvalsh(t.imag)
    assert np.all(eigs > 0)


def test_genus1_tau_upper_half(g1):
    _, pd = g1
    tau = pd.omega2[0, 0] / pd.omega1[0, 0]
    assert tau.imag > 0
    # the lemniscatic curve has square period lattice
    assert tau == pytest.approx(1j, abs=1e-10)


def test_perturbed_periods_fail_certificate(g1):
    _, pd = g1
    bad = dataclasses.replace(pd, omega1=pd.omega1 * (1 + 1e-3),
                              legendre_residual=0.0, error_estimate=0.0)
    assert legendre_residual(bad) > 1e-4


def test_a_basis_off_the_slicing_rule_fails_the_certificate(g2):
    # beta_0 as segment 1 alone, not segments 1 + 3: it meets alpha_1 too
    _, pd = g2

    def off(m):
        return np.column_stack([m[:, 0] - m[:, 1], m[:, 1]])

    bad = dataclasses.replace(pd, omega2=off(pd.omega2), eta2=off(pd.eta2))
    assert legendre_residual(pd) < 1e-8 < 1e-2 < legendre_residual(bad)


def test_refinement_agrees_within_reported_error(g2):
    curve, pd = g2
    finer = compute_periods(curve, base_nodes=512)
    for a, b in ((pd.omega1, finer.omega1), (pd.omega2, finer.omega2),
                 (pd.eta1, finer.eta1), (pd.eta2, finer.eta2)):
        assert np.max(np.abs(a - b)) <= max(pd.error_estimate, 1e-13) * 10


def test_period_ladder_raises_past_its_node_limit(monkeypatch):
    # with an agreement bound of 0 no two levels agree: the ladder doubles
    # from 256 to MAX_NODES nodes and then raises
    nodes = []
    segment_integrals = periods_mod._segment_integrals

    def counted(e, k, numerators, n_nodes):
        nodes.append(n_nodes)
        return segment_integrals(e, k, numerators, n_nodes)

    monkeypatch.setattr(periods_mod, "_segment_integrals", counted)
    monkeypatch.setattr(periods_mod, "AGREE_TOL", 0.0)
    with pytest.raises(QuadratureNonConvergence, match="4096 nodes"):
        compute_periods(make_curve(1, [0, -1, 0]))
    assert sorted(set(nodes)) == [256, 512, 1024, 2048, 4096]


def _halving_level(calls, nan_from=None):
    """Synthetic level: one sum 1/n (exact at powers of two), NaN from nan_from."""
    def level(n):
        calls.append(n)
        value = np.nan if nan_from is not None and n >= nan_from else 1.0 / n
        return np.array([value]), f"extra {n}"
    return level


def test_refine_doubles_until_two_levels_agree():
    calls = []
    # successive sums 1/4, 1/8, 1/16 differ by 1/8 and then by 1/16
    out, err = _refine(_halving_level(calls), 4, 1.0 / 16, 64)
    assert calls == [4, 8, 16]
    assert out[0][0] == 1.0 / 16 and out[1] == "extra 16"
    assert err == 1.0 / 16  # accepted at exactly the bound
    calls.clear()
    out, err = _refine(_halving_level(calls), 4, np.nextafter(1.0 / 16, 0), 64)
    assert calls == [4, 8, 16, 32] and err == 1.0 / 32


def test_refine_raises_at_its_node_limit_and_never_accepts_nan():
    calls = []
    with pytest.raises(QuadratureNonConvergence):
        _refine(_halving_level(calls), 4, 1e-3, 32)
    assert calls == [4, 8, 16, 32]
    calls.clear()
    with pytest.raises(QuadratureNonConvergence):
        _refine(_halving_level(calls, nan_from=8), 4, np.inf, 32)
    assert calls == [4, 8, 16, 32]


def _continuous_sqrt_loop(values, anchor_index, anchor):
    """Reference: nearest-value continuation one node at a time."""
    root = np.sqrt(values.astype(complex))
    out = root.copy()
    if abs(-root[anchor_index] - anchor) < abs(root[anchor_index] - anchor):
        out[anchor_index] = -root[anchor_index]
    for m in range(anchor_index + 1, values.size):
        if abs(out[m] - out[m - 1]) > abs(out[m] + out[m - 1]):
            out[m] = -out[m]
    for m in range(anchor_index - 1, -1, -1):
        if abs(out[m] - out[m + 1]) > abs(out[m] + out[m + 1]):
            out[m] = -out[m]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_continuous_sqrt_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n = 600
    # a path winding around 0 at least three times, back and forth on the way
    angle = np.cumsum(rng.uniform(-0.05, 0.15, n))
    assert angle[-1] - angle[0] > 6 * np.pi
    values = np.exp(rng.normal(0.0, 0.3, n).cumsum() * 0.1) * np.exp(1j * angle)
    for k in (0, n // 2, n - 1):
        root = np.sqrt(values[k])
        for anchor in (root, -root):
            got = _continuous_sqrt(values, k, anchor)
            assert np.array_equal(got, _continuous_sqrt_loop(values, k, anchor))
    assert not np.array_equal(got, np.sqrt(values))
