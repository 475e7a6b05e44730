"""The benchmark's two workloads, each a set-up plus one kind of op.

Every op draws its inputs from ``numpy.random.default_rng([seed, OP_STREAM,
k])``, so op ``k`` of a seed is the same input in every run and in the traced
and untraced passes. Each op evaluates its identities on both sides, checks
each residual against the acceptance tolerance of ``sigmatoda.verify`` and
reports the residuals and the failures (typed errors and gate misses), each
with the genus it happened at.

The package is reached through ``importlib`` and module attributes only, so
that the span wrappers installed by ``spans.py`` see every call.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

import numpy as np


def _mod(name: str):
    # ``sigmatoda.sigma`` as an attribute is the function sigma, not the module
    return importlib.import_module(f"sigmatoda.{name}")


errors = _mod("errors")
curves = _mod("curves")
addition = _mod("addition")
toda = _mod("toda")
division = _mod("division")
verify = _mod("verify")

OP_STREAM = 1
SETUP_STREAM = 0

# acceptance tolerances of sigmatoda.verify
TOL_ADDITION_G1 = 1e-9
TOL_ADDITION_G2 = 1e-6
TOL_TODA = {1: 1e-6, 2: 1e-5}
TOL_FLASCHKA = 1e-7
TOL_LAX_DET = 1e-10
TOL_SPECTRAL = 1e-9
TODA_GAP_FLOOR = 0.1  # least |V - V_c| / max(1, |V_c|) on a toda stencil


@dataclass
class OpResult:
    """Residuals of one op (NaN where a check raised) and its failures."""

    residuals: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (genus, kind)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, name: str, genus: int, tol: float, fn) -> None:
        """Run one two-sided check; a typed error or a gate miss is a failure."""
        try:
            value = float(fn())
        except errors.SigmaTodaError as exc:
            self.residuals.append(math.nan)
            self.failures.append((genus, type(exc).__name__))
            return
        self.residuals.append(value)
        if not value < tol:
            self.failures.append((genus, f"gate:{name}"))


def _op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, OP_STREAM, k])


# --- addition ---------------------------------------------------------------

def addition_setup(seed: int):
    return verify.canonical_contexts()


def addition_op(state, seed: int, k: int) -> OpResult:
    """One criterion-2 sample: fresh points through every addition identity."""
    ctx1, ctx2 = state
    rng = _op_rng(seed, k)
    p, q = curves.random_curve_points(ctx1.curve, rng, 2)
    base = curves.random_curve_points(ctx2.curve, rng, 2)
    v1, v2 = curves.random_curve_points(ctx2.curve, rng, 2)
    res = OpResult()
    res.check("two_point_addition_g1", 1, TOL_ADDITION_G1,
              lambda: addition.thm_add_residual(ctx1, [p], [q]))
    res.check("pair_addition_g2", 2, TOL_ADDITION_G2,
              lambda: addition.thm_add_residual(ctx2, base, [v1, v2]))
    res.check("general_addition_g2", 2, TOL_ADDITION_G2,
              lambda: addition.thm_add_residual(ctx2, base, [v1]))
    res.check("fay_kernel_g2", 2, TOL_ADDITION_G2,
              lambda: addition.fay_residual(ctx2, base, v1, v2))
    res.check("baker_bilinear_g2", 2, TOL_ADDITION_G2,
              lambda: addition.baker_residual(ctx2, base, v1, v2))
    return res


# --- toda -------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSpec:
    frame: object
    genus: int
    period: int | None  # lattice period N of a periodic frame


def _conditioned_frame(ctx, rng):
    """Quasi-periodic frame clear of the theta divisor on sites -4..4."""
    for _ in range(60):
        v1 = curves.random_curve_points(ctx.curve, rng, 1)[0]
        try:
            frame = toda.toda_frame(ctx, v1, rng=rng)
        except errors.SigmaTodaError:
            continue
        if toda.frame_well_conditioned(frame, range(-4, 5)):
            return frame
    raise RuntimeError("no conditioned quasi-periodic frame in 60 draws")


def _periodic_frame(ctx, order: int, rng):
    """Periodic frame from the real N-torsion point of largest x."""
    cands = [c for c in division.xi_set(ctx.curve, order)
             if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0]
    cand = max(cands, key=lambda c: c.point.x.real)
    return division.torsion_to_frame(ctx, cand, order, rng=rng)


def toda_setup(seed: int):
    ctx1, ctx2 = verify.canonical_contexts()
    rng = np.random.default_rng([seed, SETUP_STREAM])
    return (
        FrameSpec(_conditioned_frame(ctx1, rng), 1, None),
        FrameSpec(_conditioned_frame(ctx2, rng), 2, None),
        FrameSpec(_periodic_frame(ctx1, 3, rng), 1, 3),
        FrameSpec(_periodic_frame(ctx1, 4, rng), 1, 4),
    )


def _site_time(state, rng):
    """A (site n, time t) draw at which every frame is well conditioned.

    The second-difference residual is a finite difference, and it loses
    accuracy near a zero of sigma or of V - V_c on its stencil n-1..n+1
    (``toda.frame_well_conditioned``). Such draws are drawn again, as
    ``sigmatoda.verify`` falls back to t = 0. Over 7200 frame evaluations at
    the seed, a gap below 0.05 |V_c| gave residuals up to 1.8e-5, and above
    ``TODA_GAP_FLOOR`` none exceeded 1.8e-7; 1.4% of draws were redrawn.
    """
    for _ in range(50):
        n = int(rng.integers(-3, 4))
        t = complex(rng.normal() * 0.04, rng.normal() * 0.04)
        if all(toda.frame_well_conditioned(spec.frame, range(n - 1, n + 2), t,
                                           gap_floor=TODA_GAP_FLOOR)
               for spec in state):
            return n, t
    raise RuntimeError("no well-conditioned (site, time) draw in 50 tries")


def toda_op(state, seed: int, k: int) -> OpResult:
    """One (site, time) draw checked on every frame built in set-up."""
    n, t = _site_time(state, _op_rng(seed, k))
    res = OpResult()
    for spec in state:
        fr, g = spec.frame, spec.genus
        res.check("toda_second_difference", g, TOL_TODA[g],
                  lambda: toda.toda_residual_1d(fr, n, t))
        res.check("hirota_bilinear", g, TOL_TODA[g],
                  lambda: toda.hirota_residual(fr, n, t))
        res.check("flaschka_double_path", g, TOL_FLASCHKA,
                  lambda: abs(toda.flaschka(fr, n, t)[0]
                              - toda.flaschka_wp_path(fr, n, t)))
        if spec.period is None:
            continue
        try:
            state_n = toda.toda_state(fr, spec.period, t)
        except errors.SigmaTodaError as exc:
            res.residuals.extend([math.nan, math.nan])
            res.failures.append((g, type(exc).__name__))
            continue
        res.check("lax_determinant_oracle", g, TOL_LAX_DET,
                  lambda: toda.lax_det_residual(state_n))
        res.check("spectral_morphism", g, TOL_SPECTRAL,
                  lambda: toda.spectral_morphism(state_n)[0])
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    trace_ops: int  # ops per traced pass; fixed so the counts repeat exactly
    host_kernel: str  # run.HostSpeed kernel closest to the op's dominant layer


# why each was chosen is recorded in BENCHMARK.json and in every run record
WORKLOADS = {
    w.name: w for w in (
        Workload("addition", addition_setup, addition_op, 6, "quadrature"),
        Workload("toda", toda_setup, toda_op, 16, "theta"),
    )
}
