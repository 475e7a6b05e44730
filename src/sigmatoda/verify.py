"""Acceptance checks: every library-level guarantee as a pass/fail record.

Each criterion function returns a CriterionResult whose checks carry the
measured value, the tolerance, and the identity name they certify. The
functions share prebuilt sigma contexts for the two canonical curves

    y^2 = x^3 - x      (genus 1)
    y^2 = x^5 + 1      (genus 2)

and draw their samples from a seeded generator, so a fixed seed reproduces
the report byte for byte.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import addition, division, poncelet, toda
from .curves import CurvePoint, make_curve, random_curve_points
from .sigma import abel_map, sigma_context, wp_matrix
from .errors import SigmaTodaError, worst_of


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, tolerance: float, note: str = ""):
        self.checks.append(Check(name, float(value), float(tolerance),
                                 bool(value < tolerance), note))


def canonical_contexts():
    ctx1 = sigma_context(make_curve(1, [0, -1, 0]))
    ctx2 = sigma_context(make_curve(2, [1, 0, 0, 0, 0]))
    return ctx1, ctx2


def _real_torsion(curve, order):
    cands = [c for c in division.xi_set(curve, order)
             if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0]
    return max(cands, key=lambda c: c.point.x.real)


JACOBI_SEED = 17  # fixed, so that every run draws the same inversion samples


def _inversion_defect(ctx, pts) -> float:
    """Jacobi inversion defect at abel(pts) over max(1, |x|^2); inf at a pole.

    x_1..x_g are the roots of X^g - sum_i wp_{g,i} X^{i-1}: at genus 1
    wp_11 = x, at genus 2 wp_22 = x_1 + x_2 and wp_12 = -x_1 x_2.
    """
    try:
        wpm = wp_matrix(ctx, abel_map(ctx, pts).u)
    except SigmaTodaError:
        return float("inf")
    xs = [p.x for p in pts]
    defect = np.max(np.abs(np.poly(xs)[1:] + wpm[-1, ::-1]))
    return float(defect) / max(1.0, *(abs(x) ** 2 for x in xs))


def criterion_legendre(ctx1, ctx2) -> CriterionResult:
    res = CriterionResult(1, "Legendre certificate and Jacobi inversion")
    for ctx, label, tol in ((ctx1, "g1", 1e-10), (ctx2, "g2", 1e-8)):
        t0 = time.perf_counter()
        pd = sigma_context(ctx.curve).periods  # rebuilt to time the full path
        elapsed = time.perf_counter() - t0
        res.add(f"legendre_residual_{label}", pd.legendre_residual, tol)
        res.add(f"periods_runtime_{label}_seconds", elapsed, 5.0)
        res.add(f"transport_margin_{label}", pd.transport_margin, 1e-10,
                "worst |q -/+ 1| of the closed-form sheet transports")
    rng = np.random.default_rng(JACOBI_SEED)
    for ctx, label in ((ctx1, "g1"), (ctx2, "g2")):
        seeded = [random_curve_points(ctx.curve, rng, ctx.genus) for _ in range(20)]
        branch = [CurvePoint(complex(e), 0j) for e in ctx.curve.branch_points]
        res.add(f"jacobi_inversion_{label}",
                worst_of(*(_inversion_defect(ctx, pts) for pts in seeded)), 1e-9,
                "20 seeded divisors")
        res.add(f"jacobi_inversion_branch_points_{label}",
                worst_of(*(_inversion_defect(ctx, list(pts))
                           for pts in itertools.combinations(branch, ctx.genus))), 1e-9,
                "every divisor of distinct branch points: the closed-form anchors")
    return res


def criterion_addition(ctx1, ctx2, seed: int = 0) -> CriterionResult:
    res = CriterionResult(2, "Addition identities as two-sided residuals")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        p, q = random_curve_points(ctx1.curve, rng, 2)
        worst = worst_of(worst, addition.thm_add_residual(ctx1, [p], [q]))
    res.add("two_point_addition_g1", worst, 1e-9,
            "sigma quotient against the coordinate difference")
    worst_pair = worst_gen = worst_fay = worst_baker = 0.0
    for _ in range(50):
        base = random_curve_points(ctx2.curve, rng, 2)
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        worst_pair = worst_of(worst_pair, addition.thm_add_residual(ctx2, base, [v1, v2]))
        worst_gen = worst_of(worst_gen, addition.thm_add_residual(ctx2, base, [v1]))
        worst_fay = worst_of(worst_fay, addition.fay_residual(ctx2, base, v1, v2))
        worst_baker = worst_of(worst_baker, addition.baker_residual(ctx2, base, v1, v2))
    res.add("pair_addition_g2", worst_pair, 1e-6, "g plus two point identity")
    res.add("general_addition_g2", worst_gen, 1e-6, "mixed (2, 1) identity")
    res.add("fay_kernel_g2", worst_fay, 1e-6)
    res.add("baker_bilinear_g2", worst_baker, 1e-6)
    return res


def _conditioned_frame(ctx, rng, span):
    for _ in range(60):
        v1 = random_curve_points(ctx.curve, rng, 1)[0]
        try:
            frame = toda.toda_frame(ctx, v1, rng=rng)
        except SigmaTodaError:
            continue
        if toda.frame_well_conditioned(frame, span):
            return frame
    raise RuntimeError("frame sampling failed")


def criterion_toda(ctx1, ctx2, seed: int = 1) -> CriterionResult:
    res = CriterionResult(3, "Lattice equation, bilinear form, two-time form")
    rng = np.random.default_rng(seed)
    for ctx, tol, label in ((ctx1, 1e-6, "g1"), (ctx2, 1e-5, "g2")):
        worst = worst_h = 0.0
        for _ in range(20):
            frame = _conditioned_frame(ctx, rng, range(-4, 5))
            t0 = complex(rng.normal() * 0.04, rng.normal() * 0.04)
            if not toda.frame_well_conditioned(frame, range(-4, 5), t0):
                t0 = 0.0
            for n in range(-3, 4):
                worst = worst_of(worst, toda.toda_residual_1d(frame, n, t0))
                worst_h = worst_of(worst_h, toda.hirota_residual(frame, n, t0))
        res.add(f"toda_second_difference_{label}", worst, tol)
        res.add(f"hirota_bilinear_{label}", worst_h, tol,
                "bilinear form passes jointly with the second difference")
    worst2d = 0.0
    done = 0
    while done < 5:
        v1, v2 = random_curve_points(ctx2.curve, rng, 2)
        try:
            r = toda.toda2d_residual(ctx2, v1, v2, 0,
                                     complex(rng.normal() * 0.03),
                                     complex(rng.normal() * 0.03), rng=rng)
        except SigmaTodaError:
            continue
        worst2d = worst_of(worst2d, r)
        done += 1
    res.add("two_time_lattice_g2", worst2d, 1e-5)
    return res


def criterion_division(ctx1) -> CriterionResult:
    res = CriterionResult(4, "Division polynomials and both determinant forms")
    curve = ctx1.curve
    a3 = division.cantor_alpha(curve, 3).alpha
    target3 = np.array([-1, 0, -6, 0, 3], dtype=complex)
    dev3 = np.max(np.abs(a3 / a3[-1] - target3 / target3[-1]))
    res.add("alpha_3_coefficients", dev3, 1e-9)
    a4 = division.cantor_alpha(curve, 4).alpha
    target4 = np.array([1, 0, -5, 0, -5, 0, 1], dtype=complex)
    dev4 = np.max(np.abs(a4 / a4[-1] - target4 / target4[-1]))
    res.add("alpha_4_coefficients", dev4, 1e-9,
            "matches (x^2+1)(x^2+2x-1)(x^2-2x-1) after normalization")
    rng = np.random.default_rng(5)
    worst_ratio = 0.0
    for n in range(2, 7):
        pts = random_curve_points(curve, rng, 10)
        ratios = np.array([division.kiepert_psi(curve, n, p)
                           / division.cantor_psi(curve, n, p) for p in pts])
        worst_ratio = worst_of(worst_ratio, float(np.std(ratios) / abs(np.mean(ratios))))
    res.add("kiepert_cantor_cross_ratio", worst_ratio, 1e-8)
    worst_orc = 0.0
    for n in range(2, 9):
        mine = division.cantor_alpha(curve, n).alpha
        oracle = division.elliptic_psi_oracle(curve, n)
        if n == 5:
            deg5, oracle5 = mine.size - 1, oracle.size - 1
        if mine.size != oracle.size:
            worst_orc = float("inf")
            continue
        ratio = mine[-1] / oracle[-1]
        worst_orc = worst_of(worst_orc, float(
            np.max(np.abs(mine - ratio * oracle)) / np.max(np.abs(mine))))
    res.add("recurrence_oracle_agreement", worst_orc, 1e-9)
    agreement = (f"both computation paths and the recurrence oracle agree on "
                 f"degree {deg5}" if deg5 == oracle5 else
                 f"alpha_5 has degree {deg5}, the recurrence oracle {oracle5}")
    res.add("psi5_reference_tabulation", abs(deg5 - oracle5), 1.0,
            f"documented discrepancy: a reference tabulation lists a degree "
            f"14 polynomial; {agreement}")
    return res


def criterion_torsion(ctx1) -> CriterionResult:
    res = CriterionResult(5, "Torsion certificates and periodic frames")
    targets = {3: np.sqrt(9 + 6 * np.sqrt(3)) / 3, 4: 1 + np.sqrt(2)}
    for order, x_target in targets.items():
        cand = _real_torsion(ctx1.curve, order)
        res.add(f"torsion_x_value_order{order}",
                abs(cand.point.x - x_target), 1e-9)
        res.add(f"lattice_certificate_order{order}",
                division.torsion_distance(ctx1, cand.point, order), division.TORSION_TOL)
        frame = division.torsion_to_frame(ctx1, cand, order)
        worst = 0.0
        for k in range(0, 2 * order + 1):
            a0, b0 = toda.flaschka(frame, k, 0.013)
            a1, b1 = toda.flaschka(frame, k + order, 0.013)
            worst = worst_of(worst, abs(a0 - a1), abs(b0 - b1))
        res.add(f"flaschka_periodicity_order{order}", worst, 1e-7)
    return res


def criterion_spectral(ctx1) -> CriterionResult:
    res = CriterionResult(6, "Flaschka coordinates, Lax data, invariants")
    rng = np.random.default_rng(9)
    frame_free = _conditioned_frame(ctx1, rng, range(-2, 5))
    worst = worst_of(*(abs(toda.flaschka(frame_free, k, 0.02)[0]
                           - toda.flaschka_wp_path(frame_free, k, 0.02))
                       for k in (-1, 0, 1, 2)))
    res.add("flaschka_double_path", worst, 1e-7,
            "sigma-quotient path against the potential-difference path")
    res.add("flaschka_equations_of_motion",
            toda.flaschka_ode_residual(frame_free, 3, 0.02), 1e-6)
    for order in (3, 4):
        cand = _real_torsion(ctx1.curve, order)
        frame = division.torsion_to_frame(ctx1, cand, order)
        drift = toda.invariant_drift(frame, order,
                                     np.linspace(0.0, 0.45, 10).tolist())
        res.add(f"invariant_drift_order{order}", drift, 1e-7)
        rel = toda.invariant_sigma_relations(frame, order)
        dev = worst_of(abs(rel["I1"] - rel["I1_sigma"]) / (1 + abs(rel["I1"])),
                       abs(rel["IN1"] - rel["IN1_sigma"]) / (1 + abs(rel["IN1"])))
        plain_dev = worst_of(abs(rel["I1"] - rel["I1_plain"]),
                             abs(rel["IN1"] - rel["IN1_plain"]))
        res.add(f"hamiltonian_closed_forms_order{order}", dev, 1e-6,
                "with quasi-period factors; the same forms without them "
                f"deviate by {plain_dev:.3e} (documented discrepancy)")
        state = toda.toda_state(frame, order, 0.1)
        res.add(f"lax_determinant_oracle_order{order}",
                toda.lax_det_residual(state), 1e-10)
        morph, data = toda.spectral_morphism(state)
        roots = data.weierstrass_z
        res.add(f"spectral_morphism_order{order}", morph, 1e-9)
        res.add(f"weierstrass_root_count_order{order}",
                abs(roots.size - 2 * order), 0.5,
                f"{roots.size} branch values for the degree-two model")
    return res


def criterion_poncelet(ctx1) -> CriterionResult:
    res = CriterionResult(7, "Poncelet closure and side tangency")
    for order in (3, 4):
        cand = _real_torsion(ctx1.curve, order)
        pair = poncelet.pair_for_torsion(ctx1, cand.point)
        worst_close = worst_tan = worst_toda = 0.0
        for t in (0.1, 0.45, -0.2, 0.8, 1.3):
            verts, _ = poncelet.poncelet_vertices(ctx1, cand.point, order, t)
            worst_close = worst_of(worst_close, poncelet.closure_residual(verts, order))
            worst_tan = worst_of(worst_tan, poncelet.side_tangency_max(pair, verts))
            worst_toda = worst_of(worst_toda,
                                  poncelet.vertex_toda_residual(ctx1, cand.point, 1, t))
        res.add(f"polygon_closure_order{order}", worst_close, 1e-6)
        res.add(f"side_tangency_order{order}", worst_tan, 1e-6)
        res.add(f"vertex_toda_order{order}", worst_toda, 1e-10,
                "second difference of the vertex sequence at vertex 1")
    return res


def run_all(seed: int = 0) -> list[CriterionResult]:
    """All acceptance criteria; elapsed time is recorded per criterion.

    Criterion 8 reruns the seeded criteria 2 and 3 and counts the checks
    whose value differs from the first run.
    """
    t_start = time.perf_counter()
    ctx1, ctx2 = canonical_contexts()
    seeded = ((criterion_addition, (ctx1, ctx2, seed)),
              (criterion_toda, (ctx1, ctx2, seed + 1)))
    results = []
    for fn, args in (
        (criterion_legendre, (ctx1, ctx2)),
        *seeded,
        (criterion_division, (ctx1,)),
        (criterion_torsion, (ctx1,)),
        (criterion_spectral, (ctx1,)),
        (criterion_poncelet, (ctx1,)),
    ):
        t0 = time.perf_counter()
        result = fn(*args)
        result.elapsed = time.perf_counter() - t0
        results.append(result)
    first = {(r.index, c.name): repr(c.value) for r in results for c in r.checks}
    reruns = [fn(*args) for fn, args in seeded]
    differing = sum(first[(r.index, c.name)] != repr(c.value)
                    for r in reruns for c in r.checks)
    total = time.perf_counter() - t_start
    meta = CriterionResult(8, "Full verification runtime and determinism")
    meta.add("total_runtime_seconds", total, 600.0)
    meta.add("deterministic_under_fixed_seed", differing, 1.0,
             "checks of criteria 2 and 3 whose value changed when rerun "
             "with the same seed")
    results.append(meta)
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.index}: {r.title} "
                     f"({r.elapsed:.2f} s)")
        for c in r.checks:
            mark = "ok " if c.passed else "BAD"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"    {mark} {c.name}: {c.value:.3e} "
                         f"< {c.tolerance:.1e}{note}")
    return "\n".join(lines)
