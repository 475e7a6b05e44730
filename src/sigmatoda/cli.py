"""Command-line entry point.

Subcommands load a curve description from a JSON file with fields

    {"genus": g, "lambda": [[re, im], ...]}        (ascending degree)

and emit either a JSON document (sorted keys, so runs with the same seed
are byte identical) or CSV rows for time and lattice series. Exit status is
0 on success, 1 when a verification criterion fails, and 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from collections import Counter

import numpy as np

from . import addition, division, poncelet, toda, verify
from .curves import CurvePoint, make_curve, random_curve_points
from .errors import SigmaTodaError, ThetaDivisorPole, worst_of
from .periods import compute_periods
from .sigma import (
    abel_map,
    lattice_distance,
    sigma_context,
    sigma_with_scale,
    wp_matrix,
    zeta,
)


def _pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.atleast_2d(m)]


def _vector(v) -> list:
    return [_pair(z) for z in np.atleast_1d(v)]


def load_curve(path: str):
    with open(path) as fh:
        data = json.load(fh)
    lam = [complex(re, im) for re, im in data["lambda"]]
    return make_curve(int(data["genus"]), lam)


def parse_points(text: str) -> list[CurvePoint]:
    """Points as JSON [[x_re, x_im, y_re, y_im], ...]."""
    rows = json.loads(text)
    return [CurvePoint(complex(r[0], r[1]), complex(r[2], r[3])) for r in rows]


def parse_u(text: str) -> np.ndarray:
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) % 2 != 0:
        raise ValueError("u needs re,im pairs")
    return np.array([complex(vals[2 * i], vals[2 * i + 1])
                     for i in range(len(vals) // 2)])


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit(args, payload: dict) -> None:
    _write(args, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def emit_csv(args, header: list, rows: list) -> None:
    # the csv writer writes a float cell as its repr, the shortest text that
    # reads back to the same float
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(args, buf.getvalue())


def cmd_periods(args) -> int:
    curve = load_curve(args.curve)
    pd = compute_periods(curve)
    emit(args, {
        "genus": curve.genus,
        "omega1": _matrix(pd.omega1),
        "omega2": _matrix(pd.omega2),
        "eta1": _matrix(pd.eta1),
        "eta2": _matrix(pd.eta2),
        "riemann": _matrix(pd.riemann),
        "legendre_residual": pd.legendre_residual,
        "error_estimate": pd.error_estimate,
        "transport_margin": pd.transport_margin,
    })
    return 0


def cmd_sigma(args) -> int:
    ctx = sigma_context(load_curve(args.curve))
    u = parse_u(args.u)
    val, scale = sigma_with_scale(ctx, u)
    payload = {"u": _vector(u), "sigma": _pair(val), "cancellation_scale": scale}
    try:
        payload["zeta"] = [_pair(zeta(ctx, i, u)) for i in range(1, ctx.genus + 1)]
        payload["wp"] = [[_pair(w) for w in row] for row in wp_matrix(ctx, u)]
    except ThetaDivisorPole:
        # zeta and wp read the same sigma value and scale, so neither is set
        payload["on_theta_divisor"] = True
    emit(args, payload)
    return 0


def cmd_abel(args) -> int:
    ctx = sigma_context(load_curve(args.curve))
    pts = parse_points(args.points)
    ap = abel_map(ctx, pts)
    emit(args, {"u": _vector(ap.u), "stratum": ap.stratum})
    return 0


# draws per requested sample before a sampler whose draws keep raising is
# stopped; its identity then gets no residual and the command exits 1
ATTEMPTS_PER_SAMPLE = 20


def cmd_verify_addition(args) -> int:
    """Sampled residuals; draws that raise are redrawn and counted by class."""
    ctx = sigma_context(load_curve(args.curve))
    rng = np.random.default_rng(args.seed)
    g = ctx.genus
    table = {}
    names = {
        "frobenius_pair": lambda: addition.fs_residual(
            ctx, random_curve_points(ctx.curve, rng, 2)),
        "two_point_addition": lambda: addition.thm_add_residual(
            ctx, random_curve_points(ctx.curve, rng, g),
            random_curve_points(ctx.curve, rng, 1)),
        "fay_kernel": lambda: addition.fay_residual(
            ctx, random_curve_points(ctx.curve, rng, g),
            *random_curve_points(ctx.curve, rng, 2)),
        "baker_bilinear": lambda: addition.baker_residual(
            ctx, random_curve_points(ctx.curve, rng, g),
            *random_curve_points(ctx.curve, rng, 2)),
        "one_point_f_value": lambda: addition.deg2_F_check(
            ctx, random_curve_points(ctx.curve, rng, g),
            random_curve_points(ctx.curve, rng, 1)[0]),
        "doubling_kernel": lambda: addition.deg1_residual(
            ctx, random_curve_points(ctx.curve, rng, g),
            random_curve_points(ctx.curve, rng, 1)[0]),
    }
    raised, stopped = {}, []
    for name, sampler in names.items():
        vals, errors = [], Counter()
        for _ in range(ATTEMPTS_PER_SAMPLE * args.samples):
            try:
                vals.append(sampler())
            except SigmaTodaError as exc:
                errors[type(exc).__name__] += 1
            if len(vals) == args.samples:
                break
        raised[name] = dict(sorted(errors.items()))
        if len(vals) < args.samples:
            stopped.append(name)
            continue
        table[name] = {"max": float(np.max(vals)),
                       "median": float(np.median(vals))}
    emit(args, {"samples": args.samples, "seed": args.seed, "residuals": table,
                "raised": raised, "stopped": stopped})
    return 1 if stopped else 0


def cmd_division(args) -> int:
    curve = load_curve(args.curve)
    dp = division.cantor_alpha(curve, args.n)
    payload = {
        "n": dp.n,
        "y_exponent": dp.y_exponent,
        "alpha": _vector(dp.alpha),
        "degree": dp.degree,
    }
    if args.n >= curve.genus + 2:
        payload["degree_formula"] = division.alpha_degree(curve.genus, args.n)
        payload["degree_certified"] = dp.degree == payload["degree_formula"]
    emit(args, payload)
    return 0


def cmd_torsion(args) -> int:
    curve = load_curve(args.curve)
    ctx = sigma_context(curve)
    cands = division.xi_set(curve, args.N)
    rows = []
    for cand in cands:
        c = 2.0 * abel_map(ctx, [cand.point]).u
        rows.append({
            "x": _pair(cand.point.x),
            "y": _pair(cand.point.y),
            "window_residuals": [float(r) for r in cand.residuals],
            "lattice_residual": lattice_distance(ctx.periods, args.N * c),
        })
    emit(args, {"order": args.N, "candidates": rows})
    return 0


def _chain_frame(ctx, point: CurvePoint, sites: int, seed: int):
    """(frame, lattice residual, periodic) of the chain stepped by c = 2 abel(point).

    A lattice distance of sites * c below ``division.TORSION_TOL`` makes the
    chain periodic with that many sites, and its frame is
    ``torsion_to_frame``'s; otherwise the frame is ``toda_frame``'s at the
    seed, with periodic False.
    """
    c = 2.0 * abel_map(ctx, [point]).u
    lattice_res = lattice_distance(ctx.periods, sites * c)
    if lattice_res < division.TORSION_TOL:
        cand = division.TorsionCandidate(point, sites, (0.0,))
        return division.torsion_to_frame(ctx, cand, sites), lattice_res, True
    frame = toda.toda_frame(ctx, point, rng=np.random.default_rng(seed))
    return frame, lattice_res, False


def cmd_toda_run(args) -> int:
    curve = load_curve(args.curve)
    ctx = sigma_context(curve)
    point = parse_points(args.point)[0]
    times = np.linspace(args.t0, args.t1, args.steps)
    frame, lattice_res, periodic = _chain_frame(ctx, point, args.sites, args.seed)
    rows = []
    for t in times:
        state = toda.toda_state(frame, args.sites, complex(t))
        for k in range(args.sites):
            rows.append([float(t), k + 1,
                         *(float(x) for x in (state.a[k].real, state.a[k].imag,
                                              state.b[k].real, state.b[k].imag))])
    if args.format == "csv":
        emit_csv(args, ["t", "site", "a_re", "a_im", "b_re", "b_im"], rows)
        return 0
    summary = {
        "sites": args.sites,
        "periodic": periodic,
        "lattice_residual": lattice_res,
        "toda_residual": toda.toda_residual_1d(frame, 0, complex(times[0])),
        "ode_residual": toda.flaschka_ode_residual(frame, min(args.sites, 3),
                                                   complex(times[0])),
        "series": rows,
    }
    if periodic:
        summary["invariant_drift"] = toda.invariant_drift(
            frame, args.sites, [complex(t) for t in times[:10]])
    emit(args, summary)
    return 0


def cmd_spectral(args) -> int:
    curve = load_curve(args.curve)
    ctx = sigma_context(curve)
    point = parse_points(args.point)[0]
    frame, lattice_res, periodic = _chain_frame(ctx, point, args.sites, args.seed)
    state = toda.toda_state(frame, args.sites, complex(args.t))
    morph, data = toda.spectral_morphism(state)
    emit(args, {
        "periodic": periodic,
        "lattice_residual": lattice_res,
        "characteristic_coefficients": _vector(data.p_coeffs),
        "invariants": _vector(data.invariants),
        "weierstrass_z": _vector(data.weierstrass_z),
        "morphism_residual": morph,
        "lax_determinant_residual": toda.lax_det_residual(state),
    })
    return 0


def cmd_poncelet(args) -> int:
    with open(args.conic) as fh:
        data = json.load(fh)
    mat = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    pair = poncelet.conic_pair(mat)
    ctx = sigma_context(poncelet.reduce_to_elliptic(pair))
    cands = poncelet.cayley_closure_check(pair, args.N)
    cand = poncelet.matching_candidate(pair, cands, ctx) if cands else None
    if cand is None:
        emit(args, {"order": args.N, "candidates": len(cands),
                    "note": "no torsion orbit inscribes in this conic pair"})
        return 0
    times = np.linspace(args.t0, args.t1, args.steps)
    rows = []
    worst_close = worst_tan = 0.0
    for t in times:
        # a sweep shifted off a pole is labelled with the t it used
        verts, t_used = poncelet.poncelet_vertices(ctx, cand.point, args.N, complex(t))
        worst_close = worst_of(worst_close, poncelet.closure_residual(verts, args.N))
        worst_tan = worst_of(worst_tan, poncelet.side_tangency_max(pair, verts))
        for n, v in enumerate(verts):
            rows.append([float(t_used.real), n, float(v[0].real), float(v[0].imag)])
    if args.format == "csv":
        emit_csv(args, ["t", "vertex", "x_re", "x_im"], rows)
        return 0
    emit(args, {
        "order": args.N,
        "torsion_x": _pair(cand.point.x),
        "closure_residual_max": worst_close,
        "side_tangency_max": worst_tan,
        "vertices": rows,
    })
    return 0


def cmd_verify_all(args) -> int:
    results = verify.run_all(args.seed)
    print(verify.format_report(results))
    if args.out:
        _write(args, json.dumps([dict(dataclasses.asdict(r), passed=r.passed)
                                 for r in results], sort_keys=True, indent=1))
    return 0 if all(r.passed for r in results) else 1


def count_at_least(low: int):
    """argparse type of a count option: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmatoda",
        description="Hyperelliptic sigma functions and exact Toda solutions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "csv"), default="json")
    curved = argparse.ArgumentParser(add_help=False)
    curved.add_argument("--curve", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    def add(name, fn, *parents, **kwargs):
        p = sub.add_parser(name, parents=[common, *parents], **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("periods", cmd_periods, curved, help="half-period matrices and certificate")
    p = add("sigma", cmd_sigma, curved, help="sigma, zeta, wp at a point of C^g")
    p.add_argument("--u", required=True, help="re,im pairs, g of them")
    p = add("abel", cmd_abel, curved, help="Abel map of a point list")
    p.add_argument("--points", required=True,
                   help="JSON [[x_re,x_im,y_re,y_im], ...]")
    p = add("verify-addition", cmd_verify_addition, seeded, curved,
            help="sampled residuals of the addition identities")
    p.add_argument("--samples", type=count_at_least(1), default=20)
    p = add("division", cmd_division, curved, help="division polynomial data")
    p.add_argument("--n", type=count_at_least(1), required=True)
    p = add("torsion", cmd_torsion, curved, help="torsion candidates and certificates")
    p.add_argument("--N", type=count_at_least(1), required=True)
    p = add("toda-run", cmd_toda_run, seeded, formatted, curved,
            help="Flaschka time series")
    p.add_argument("--point", required=True,
                   help="JSON [[x_re,x_im,y_re,y_im]] base point")
    p.add_argument("--sites", type=count_at_least(1), default=3)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=0.5)
    p.add_argument("--steps", type=count_at_least(1), default=11)
    p = add("spectral", cmd_spectral, seeded, curved, help="characteristic polynomial data")
    p.add_argument("--point", required=True)
    # the Lax matrix of one lattice period needs two sites
    p.add_argument("--sites", type=count_at_least(2), default=3)
    p.add_argument("--t", type=float, default=0.1)
    p = add("poncelet", cmd_poncelet, formatted, help="polygon vertices and residuals")
    p.add_argument("--conic", required=True, help="JSON conic matrix file")
    p.add_argument("--N", type=count_at_least(1), required=True)
    p.add_argument("--t0", type=float, default=0.1)
    p.add_argument("--t1", type=float, default=1.1)
    p.add_argument("--steps", type=count_at_least(1), default=5)
    add("verify-all", cmd_verify_all, seeded, help="run the full acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SigmaTodaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
