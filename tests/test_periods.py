import dataclasses
import itertools

import numpy as np
import pytest
from former_periods import former_level
from scipy.integrate import quad

from sigmatoda.curves import make_curve
import sigmatoda.periods as periods_mod
from sigmatoda.errors import (
    DegenerateCurve,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
)
from sigmatoda.periods import (
    _continue_y,
    _continuous_sqrt,
    _refine,
    _relative_clearance,
    _segment_integrals,
    _transport_paths,
    _transport_quotients,
    _transport_signs,
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


def test_refinement_agrees_within_reported_error(g2, monkeypatch):
    curve, pd = g2
    monkeypatch.setattr(periods_mod, "BASE_NODES", 512)
    finer = compute_periods(curve)
    for a, b in ((pd.omega1, finer.omega1), (pd.omega2, finer.omega2),
                 (pd.eta1, finer.eta1), (pd.eta2, finer.eta2)):
        assert np.max(np.abs(a - b)) <= max(pd.error_estimate, 1e-13) * 10


def test_period_ladder_raises_past_its_node_limit(monkeypatch):
    # with an agreement bound of 0 no two levels agree: the ladder doubles
    # from 256 to MAX_NODES nodes and then raises
    nodes = []
    segment_integrals = periods_mod._segment_integrals

    def counted(e, numerators, n_nodes):
        nodes.append(n_nodes)
        return segment_integrals(e, numerators, n_nodes)

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


def _generic_curves(seed, per_class):
    """Monic curves with N(0, 1) coefficients, real and complex, per genus."""
    rng = np.random.default_rng(seed)
    for genus in (1, 2):
        for complex_class in (False, True):
            for _ in range(per_class):
                lam = rng.normal(size=2 * genus + 1)
                if complex_class:
                    lam = lam + 1j * rng.normal(size=2 * genus + 1)
                yield genus, lam


def test_one_pass_level_keeps_the_bits_of_the_per_segment_calls():
    # the canonical curves and seeded generic ones, at three node levels
    curves = [make_curve(1, [0, -1, 0]), make_curve(2, [1, 0, 0, 0, 0])]
    curves += [make_curve(genus, lam) for genus, lam in _generic_curves(3032, 5)]
    for curve in curves:
        e, g = build_cycles(curve), curve.genus
        numerators = [np.eye(g, dtype=complex)[i, :i + 1] for i in range(g)]
        numerators += [second_kind_numerator(curve, j) for j in range(1, g + 1)]
        for n_nodes in (256, 512, 1024):
            assert _segment_integrals(e, numerators, n_nodes).tobytes() \
                == former_level(e, numerators, n_nodes).tobytes()


def test_generic_curves_certify():
    # the chord waypoint of the former transport gave wrong sheets on 131 of
    # 400 curves at seed 2026, and on 67 of these 240
    raised = []
    for genus, lam in _generic_curves(3030, 60):
        try:
            pd = compute_periods(make_curve(genus, lam))
        except (DegenerateCurve, PathThroughBranchPoint) as exc:
            raised.append((lam, exc))
            continue
        assert pd.legendre_residual <= 1e-8, lam
        assert np.max(np.abs(pd.riemann - pd.riemann.T)) <= 1e-8, lam
        assert np.min(np.linalg.eigvalsh(pd.riemann.imag)) > 0, lam
        assert pd.transport_margin <= 1e-10, lam
    # a named error is an outcome, not a pass: all but a few curves certify
    assert len(raised) <= 5, raised


def _stepped_signs(curve, e):
    """The transport signs from y stepped with ``_continue_y`` along the same polygon."""
    def min_dist(z):
        return float(np.min(np.abs(z - e)))

    mids, halves = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    y_ref = [1j * halves[k] * np.sqrt(complex(np.prod(mids[k] - np.delete(e, [k, k + 1]))))
             for k in range(mids.size)]
    signs = []
    for k, path in enumerate(_transport_paths(e)):
        y = y_ref[k]
        for z0, z1 in zip(path[:-1], path[1:]):
            y = _continue_y(curve, z0, z1, y, min_dist)
        signs.append(1.0 if abs(y - y_ref[k + 1]) < abs(y + y_ref[k + 1]) else -1.0)
    return np.array(signs)


def _mirrored(paths, e):
    """The paths with each arc turned counterclockwise, right of the shared point."""
    out = paths.copy()
    for k, path in enumerate(paths):
        start, end = path[1] - e[k + 1], path[-2] - e[k + 1]
        clockwise = np.angle(start / end) % (2 * np.pi)
        out[k, 1:-1] = e[k + 1] + start * np.exp(
            1j * (2 * np.pi - clockwise) * np.arange(9) / 8)
    return out


def test_closed_form_signs_equal_stepped_continuation():
    compared = 0
    for genus, lam in _generic_curves(3031, 30):
        curve = make_curve(genus, lam)
        e = build_cycles(curve)
        signs, margin = _transport_signs(e)
        assert np.array_equal(signs, _stepped_signs(curve, e)), lam
        assert margin <= 1e-10
        # the arc mirrored right of the shared branch point flips every sign
        q = _transport_quotients(e, _mirrored(_transport_paths(e), e))
        assert np.array_equal(np.sign(q.real), -signs), lam
        compared += 1
    assert compared == 120


@pytest.mark.parametrize("genus,lam,signs", [(1, [0, -1, 0], [-1.0]),
                                             (2, [1, 0, 0, 0, 0], [-1.0, 1.0, -1.0])])
def test_canonical_signs_and_the_mirrored_arc(genus, lam, signs):
    e = build_cycles(make_curve(genus, lam))
    got, margin = _transport_signs(e)
    assert got.tolist() == signs and margin <= 1e-10
    paths = _transport_paths(e)
    assert paths.shape == (2 * genus - 1, 11)
    # the arc is drawn left of the shared branch point relative to travel
    inward = e[1:-1] - e[:-2]
    middle = paths[:, 5] - e[1:-1]
    assert np.all((middle / inward).imag > 0)
    # the two arcs differ by a loop around the shared branch point alone,
    # so the right-hand one flips every sign
    q = _transport_quotients(e, _mirrored(paths, e))
    assert np.max(np.abs(np.abs(q.real) - 1) + np.abs(q.imag)) <= 1e-10
    assert np.sign(q.real).tolist() == [-s for s in signs]


def test_transport_raises_on_a_branch_point_or_an_indecisive_quotient(monkeypatch):
    e = build_cycles(make_curve(2, [1, 0, 0, 0, 0]))
    paths = _transport_paths(e)
    for bad, match in ((e[0], "vertex"), (np.nan, "not finite")):
        broken = paths.copy()
        broken[1, 3] = bad
        with pytest.raises(PathThroughBranchPoint, match=match):
            _transport_quotients(e, broken)
    # a chain whose first midpoint is its last branch point
    with pytest.raises(PathThroughBranchPoint, match="vertex"):
        _transport_signs(np.array([-1.0, 1.0, 0.0]) + 0j)
    # |q - 1| over |q + 1| decides against the ratio 0.2; the margin is |q - tau|
    line = np.array([-1.0, 0.0, 1.0]) + 0j
    for q, signs, margin in ((1.15, [1.0], 0.15), (-1.3, [-1.0], 0.3)):
        monkeypatch.setattr(periods_mod, "_transport_quotients", lambda e, p: np.array([q]))
        got = _transport_signs(line)
        assert got[0].tolist() == signs and got[1] == pytest.approx(margin)
    for q in (1j, 1.6):
        monkeypatch.setattr(periods_mod, "_transport_quotients", lambda e, p: np.array([q]))
        with pytest.raises(PathThroughBranchPoint, match="indecisive"):
            _transport_signs(line)


def _roots_curve(roots):
    return make_curve(len(roots) // 2, np.poly(roots)[:0:-1])


def test_clearance_chain_keeps_the_lexicographic_chain_when_clear():
    for genus, lam, clearance in ((1, [0, -1, 0], 1.0), (2, [1, 0, 0, 0, 0], 0.36327)):
        curve = make_curve(genus, lam)
        assert np.array_equal(build_cycles(curve), curve.branch_points)
        assert _relative_clearance(curve.branch_points[None])[0] == pytest.approx(
            clearance, abs=1e-5)


@pytest.mark.parametrize("roots", [
    # the lexicographic segment (0.031 - 1.551i, 0.031 + 1.551i) passes 0.0151
    # from 0.016, 0.49% of its length; so did the former angular chain
    [0.016, 0.031 - 1.551j, 0.031 + 1.551j],
    # a third branch point within 0.15% of a lexicographic segment's length
    [0.0, 0.003 - 1j, 0.003 + 1j, 1.0 + 0.3j, 1.5 - 0.2j],
])
def test_clearance_chain_takes_the_clearest_order(roots):
    curve = _roots_curve(roots)
    lex = curve.branch_points
    assert _relative_clearance(lex[None])[0] < 0.005
    chain = build_cycles(curve)
    assert sorted(chain.tolist(), key=lambda z: (z.real, z.imag)) == lex.tolist()
    orders = lex[np.array(list(itertools.permutations(range(lex.size))))]
    assert _relative_clearance(chain[None])[0] == _relative_clearance(orders).max()
    assert compute_periods(curve).legendre_residual <= 1e-8


def test_no_clear_chain_raises(monkeypatch):
    # every order of the canonical genus-1 chain has clearance at most 1
    monkeypatch.setattr(periods_mod, "CHAIN_CLEARANCE", 2.0)
    monkeypatch.setattr(periods_mod, "MIN_CLEARANCE", 1.5)
    with pytest.raises(PathThroughBranchPoint):
        build_cycles(make_curve(1, [0, -1, 0]))
