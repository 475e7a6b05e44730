"""Acceptance gate: every criterion at its stated tolerance.

Each test prints its criterion's check lines, so `pytest -v -s
tests/test_acceptance.py` reads as the full verification report. The same
checks back the command line `sigmatoda verify-all`.
"""

import json
import math

import numpy as np
import pytest

from sigmatoda import verify
from sigmatoda.errors import worst_of


@pytest.fixture(scope="module")
def report():
    return verify.run_all(seed=0)


def _criterion(report, index):
    result = next(r for r in report if r.index == index)
    print()
    print(verify.format_report([result]))
    return result


def test_criterion_1_legendre_certificate(report):
    assert _criterion(report, 1).passed


def test_criterion_1_jacobi_inversion_fails_on_a_wrong_anchor():
    ctx1, ctx2 = verify.canonical_contexts()
    for ctx in (ctx1, ctx2):
        # a quarter period off: the image of e_1 is no longer a half period
        ctx.abel.anchors[1] = ctx.abel.anchors[1] + 0.5 * ctx.periods.omega1[:, 0]
    result = verify.criterion_legendre(ctx1, ctx2)
    failed = {c.name for c in result.checks if not c.passed}
    assert {"jacobi_inversion_branch_points_g1",
            "jacobi_inversion_branch_points_g2"} <= failed
    assert not any(name.startswith("legendre") for name in failed)


def test_criterion_2_addition_identities(report):
    assert _criterion(report, 2).passed


def test_criterion_3_toda_identities(report):
    assert _criterion(report, 3).passed


def test_criterion_3_passes_at_seed_2():
    # verify-all --seed 1 draws these samples; a finite-difference two-time
    # left side read 2.1e-5 against the 1e-5 gate here
    ctx1, ctx2 = verify.canonical_contexts()
    result = verify.criterion_toda(ctx1, ctx2, seed=2)
    print()
    print(verify.format_report([result]))
    assert result.passed


def test_criterion_4_division_polynomials(report):
    result = _criterion(report, 4)
    assert result.passed
    notes = " ".join(c.note for c in result.checks)
    assert "discrepancy" in notes  # the degree-14 tabulation is reported


def test_psi5_degree_check_reads_the_oracle(monkeypatch):
    # an oracle psi_5 of degree 13 fails both oracle checks instead of
    # raising in the coefficient comparison, and the note names both degrees
    real = verify.division.elliptic_psi_oracle

    def oracle(curve, n):
        out = real(curve, n)
        return np.append(out, 1.0) if n == 5 else out

    ctx1, _ = verify.canonical_contexts()
    monkeypatch.setattr(verify.division, "elliptic_psi_oracle", oracle)
    result = verify.criterion_division(ctx1)
    checks = {c.name: c for c in result.checks}
    check = checks["psi5_reference_tabulation"]
    assert check.value == 1.0 and not check.passed
    assert check.note.endswith("alpha_5 has degree 12, the recurrence oracle 13")
    assert not checks["recurrence_oracle_agreement"].passed
    assert all(c.passed for c in result.checks
               if c.name not in ("psi5_reference_tabulation",
                                 "recurrence_oracle_agreement"))


def test_criterion_5_torsion_periodicity(report):
    assert _criterion(report, 5).passed


def test_criterion_6_flaschka_lax_spectral(report):
    result = _criterion(report, 6)
    assert result.passed
    notes = " ".join(c.note for c in result.checks)
    assert "quasi-period" in notes


def test_criterion_7_poncelet(report):
    result = _criterion(report, 7)
    assert result.passed
    assert {"vertex_toda_order3", "vertex_toda_order4"} <= {c.name for c in result.checks}


def test_criterion_8_runtime(report):
    result = _criterion(report, 8)
    assert result.passed
    total = next(c for c in result.checks if c.name == "total_runtime_seconds")
    assert total.value < 600.0


def _context_bytes(ctx):
    pd = ctx.periods
    arrays = (pd.omega1, pd.omega2, pd.eta1, pd.eta2, pd.riemann,
              ctx.chars.a, ctx.chars.b, ctx.kappa, ctx.pmat, *ctx.abel.anchors)
    return ([np.asarray(x).tobytes() for x in arrays],
            repr((pd.legendre_residual, pd.error_estimate, ctx.gamma0,
                  ctx.trunc_radius)))


def test_criterion_8_determinism(report):
    # criterion 8 reruns the seeded criteria 2 and 3 itself; the unseeded
    # ones are rerun here on contexts built afresh
    first, second = verify.canonical_contexts(), verify.canonical_contexts()
    for ctx_a, ctx_b in zip(first, second):
        assert _context_bytes(ctx_a) == _context_bytes(ctx_b)

    def serialize(results):
        return json.dumps([[r.index, r.title,
                            [[c.name, repr(c.value), c.passed] for c in r.checks
                             if not c.name.endswith("_seconds")]]
                           for r in results], sort_keys=True)

    ctx1, ctx2 = second
    rerun = [verify.criterion_legendre(ctx1, ctx2)] + [
        fn(ctx1) for fn in (verify.criterion_division, verify.criterion_torsion,
                            verify.criterion_spectral, verify.criterion_poncelet)]
    assert serialize(r for r in report if r.index in (1, 4, 5, 6, 7)) \
        == serialize(rerun)
    meta = next(r for r in report if r.index == 8)
    check = next(c for c in meta.checks if c.name == "deterministic_under_fixed_seed")
    assert check.value == 0.0


def test_criterion_8_detects_a_seeded_criterion_that_drifts(monkeypatch):
    calls = []

    def drifting_addition(ctx1, ctx2, seed=0):
        calls.append(seed)
        res = verify.CriterionResult(2, "stub")
        res.add("residual", 1e-12 * len(calls), 1e-9)
        return res

    def stub(index):
        def fn(*args):
            res = verify.CriterionResult(index, "stub")
            res.add("residual", 0.0, 1.0)
            return res
        return fn

    monkeypatch.setattr(verify, "canonical_contexts", lambda: (None, None))
    monkeypatch.setattr(verify, "criterion_addition", drifting_addition)
    for index, name in ((1, "legendre"), (3, "toda"), (4, "division"),
                        (5, "torsion"), (6, "spectral"), (7, "poncelet")):
        monkeypatch.setattr(verify, f"criterion_{name}", stub(index))
    meta = verify.run_all(seed=4)[-1]
    check = next(c for c in meta.checks if c.name == "deterministic_under_fixed_seed")
    assert calls == [4, 4]
    assert check.value == 1.0 and not check.passed


@pytest.mark.xfail(strict=True,
                   reason="closed forms without the quasi-period factors fail; "
                          "the corrected forms pass at 1e-12 (see criterion 6)")
def test_hamiltonian_forms_without_quasi_period_factors():
    from sigmatoda.division import torsion_to_frame, xi_set
    from sigmatoda.toda import invariant_sigma_relations

    ctx1, _ = verify.canonical_contexts()
    cand = max((c for c in xi_set(ctx1.curve, 3)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    frame = torsion_to_frame(ctx1, cand, 3)
    rel = invariant_sigma_relations(frame, 3)
    assert abs(rel["I1"] - rel["I1_plain"]) < 1e-6
    assert abs(rel["IN1"] - rel["IN1_plain"]) < 1e-6


def test_worst_of_keeps_the_nan_that_max_drops():
    nan = float("nan")
    assert max(0.0, nan) == 0.0  # every comparison with NaN is false
    assert math.isnan(worst_of(0.0, nan))
    assert math.isnan(worst_of(0.0, 1e-3, nan, 2.0))
    assert math.isnan(worst_of(nan, 0.0))
    assert worst_of(0.0, 3.0, 1.0) == 3.0
    assert worst_of(*(x for x in (0.5, 0.25))) == 0.5
    assert worst_of(0.0, float("inf")) == float("inf")


def test_a_nan_residual_after_the_first_fails_its_check(monkeypatch):
    # one sweep's closure residual is NaN: the criterion's check now fails
    # with NaN, where max(worst, nan) kept the earlier value and passed
    real = verify.poncelet.closure_residual
    calls = []

    def closure(verts, n_sides):
        calls.append(n_sides)
        return float("nan") if len(calls) == 2 else real(verts, n_sides)

    ctx1, _ = verify.canonical_contexts()
    monkeypatch.setattr(verify.poncelet, "closure_residual", closure)
    result = verify.criterion_poncelet(ctx1)
    check = next(c for c in result.checks if c.name == "polygon_closure_order3")
    assert math.isnan(check.value) and not check.passed and not result.passed
    assert all(c.passed for c in result.checks if c is not check)
