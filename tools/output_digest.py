"""Digest of the benchmark's outputs, to show that a change keeps them bit for bit.

Run from the root of a checkout:

    python3 tools/output_digest.py --seed 1 --addition-ops 120 --toda-ops 200

It prints one JSON line. For each workload of ``perfbench/workloads.py``
(read, never changed) it holds the sha256 of the residual bytes (float64)
followed by ``repr`` of the failure list, op after op, for ops
0..N-1 of the seed after one set-up. ``toda_setup`` is the sha256 of the
inputs of the seed's ``toda`` set-up frames (genus, period, v1, c, u0, the
direction and v_c), and ``toda_constants`` that of their sigma constants
(sigma_flat(c) and zeta_c), so a change that moves only the constants' last
bits reads as such. ``contexts`` is the sha256 of the set-up of both
canonical sigma contexts (characteristics, gamma0, kappa, P and the theta
radius), so a change of the set-up shows apart from the op digests.
``--verify-all`` adds ``cli``: per invocation of a fixed list of
``sigmatoda`` commands on the curves and the conic in ``curves/``, the
sha256 of its exit status, stdout, stderr and output file (of
``verify-all --out``, its file without ``elapsed`` and the ``*_seconds``
checks, since its stdout holds timings), and ``verify_all``, the sha256 of
the checks in that file, and
``generic_periods``, the sha256 of the chain, the transport signs and
omega1, omega2, eta1, eta2 of a fixed seeded set of generic curves, so a
change of the transport path, the chain or the quadrature shows.

``--values FILE`` also writes the numbers behind the digests as JSON: the
residuals and failures of every op, the set-up constants sigma_flat(c) and
zeta_c of the ``toda`` frames and gamma0 and kappa of both canonical
contexts (complex numbers as [re, im]), and with ``--verify-all`` the
value of every ``verify-all`` check but the timings. ``value_moves`` of two
such files gives the largest move of each, so that a declared move of the
last bits is bounded by a command:

    python3 -c "import json, sys; sys.path.insert(0, 'tools'); import output_digest as d; print(d.value_moves(*(json.load(open(f)) for f in sys.argv[1:])))" parent.json change.json

Run it on the parent and on the change on one machine: numpy fuses complex
array products (FMA) on some CPUs, so the digests depend on the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py of this checkout, loaded by path."""
    name = "_digest_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def op_results(name: str, seed: int, n_ops: int, state=None) -> list:
    """The ``OpResult`` of ops 0..n_ops-1 of the seed, after one set-up unless given."""
    wl = _workloads().WORKLOADS[name]
    state = wl.setup(seed) if state is None else state
    return [wl.op(state, seed, k) for k in range(n_ops)]


def op_digest(results: list) -> str:
    """sha256 of the ops' results: residual bytes, then repr of the failures."""
    import numpy as np

    h = hashlib.sha256()
    for res in results:
        h.update(np.array(res.residuals, dtype=float).tobytes())
        h.update(repr(res.failures).encode())
    return h.hexdigest()


def _pairs(values) -> list:
    """Complex numbers as [re, im] pairs, nested as given."""
    import numpy as np

    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def value_moves(parent: dict, change: dict) -> dict:
    """The largest move of each group of two ``--values`` files, parent first.

    Residuals and ``verify-all`` checks move absolutely (NaN on both sides is
    no move), each set-up constant relative to its largest modulus;
    ``failures`` is whether the failure lists are identical.
    """
    import numpy as np

    def worst(a, b, relative=False):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        move = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        if relative:  # [re, im] pairs on the last axis, over the largest modulus
            return float(np.max(np.hypot(*np.moveaxis(move, -1, 0)))
                         / np.max(np.hypot(*np.moveaxis(a, -1, 0))))
        return float(np.max(move, initial=0.0))

    out = {"failures": all(parent[w]["failures"] == change[w]["failures"]
                           for w in ("addition", "toda"))}
    for w in ("addition", "toda"):
        out[w] = max((worst(a, b) for a, b in zip(parent[w]["residuals"],
                                                  change[w]["residuals"], strict=True)),
                     default=0.0)
    for key in ("sigma_flat_c", "zeta_c", "gamma0", "kappa"):
        group = "toda_constants" if key in ("sigma_flat_c", "zeta_c") else "contexts"
        out[key] = max(worst(a[key], b[key], relative=True)
                       for a, b in zip(parent[group], change[group], strict=True))
    if "verify_all" in parent:
        out["verify_all"] = worst(*([d["verify_all"][name] for name in parent["verify_all"]]
                                    for d in (parent, change)))
    return out


def setup_digest(state) -> str:
    """sha256 of the inputs of the frames a ``toda`` set-up built."""
    import numpy as np

    h = hashlib.sha256()
    for spec in state:
        fr = spec.frame
        h.update(repr((spec.genus, spec.period, fr.periodic)).encode())
        for arr in (fr.c, fr.u0, fr.direction):
            h.update(np.asarray(arr, dtype=complex).tobytes())
        h.update(np.array([fr.v1.x, fr.v1.y, fr.v_c], dtype=complex).tobytes())
    return h.hexdigest()


def constants_digest(state) -> str:
    """sha256 of the sigma constants of those frames, sigma_flat(c) and zeta_c."""
    import numpy as np

    h = hashlib.sha256()
    for spec in state:
        h.update(np.array([spec.frame.sigma_flat_c, spec.frame.zeta_c],
                          dtype=complex).tobytes())
    return h.hexdigest()


def contexts_digest() -> str:
    """sha256 of both canonical contexts' a, b, gamma0, kappa, P and theta radius."""
    import numpy as np

    from sigmatoda.verify import canonical_contexts

    h = hashlib.sha256()
    for ctx in canonical_contexts():
        for arr in (ctx.chars.a, ctx.chars.b):
            h.update(np.asarray(arr, dtype=float).tobytes())
        for arr in (ctx.gamma0, ctx.kappa, ctx.pmat):
            h.update(np.asarray(arr, dtype=complex).tobytes())
        h.update(repr(ctx.trunc_radius).encode())
    return h.hexdigest()


GENERIC_SEED = 2030  # draws the curves of generic_periods_digest, whatever --seed is


def generic_periods_digest(per_class: int = 10) -> str:
    """sha256 of the periods of seeded monic curves, ``per_class`` per genus and class.

    The classes are N(0, 1) coefficients, real and complex. Per curve it
    hashes the chain, the transport signs and omega1, omega2, eta1, eta2,
    or the name of the error the curve raises.
    """
    import numpy as np

    from sigmatoda.curves import make_curve
    from sigmatoda.errors import SigmaTodaError
    from sigmatoda.periods import _transport_signs, compute_periods

    rng = np.random.default_rng(GENERIC_SEED)
    h = hashlib.sha256()
    for genus in (1, 2):
        for complex_class in (False, True):
            for _ in range(per_class):
                lam = rng.normal(size=2 * genus + 1)
                if complex_class:
                    lam = lam + 1j * rng.normal(size=2 * genus + 1)
                try:
                    pd = compute_periods(make_curve(genus, lam))
                except SigmaTodaError as exc:
                    h.update(type(exc).__name__.encode())
                    continue
                h.update(pd.chain.tobytes())
                h.update(_transport_signs(pd.chain)[0].tobytes())
                for arr in (pd.omega1, pd.omega2, pd.eta1, pd.eta2):
                    h.update(arr.tobytes())
    return h.hexdigest()


def verify_all_digest(results: list) -> str:
    """sha256 of the ``verify-all --out`` checks without their timings."""
    checks = [[r["index"], c["name"], repr(c["value"]), repr(c["tolerance"]),
               c["passed"], c["note"]] for r in results for c in r["checks"]]
    return hashlib.sha256(json.dumps(checks).encode()).hexdigest()


# x of the real 3-torsion point of y^2 = x^3 - x, and x = 2, not torsion
TORSION3 = "[[1.4678898250138706,0.0,1.3019113530593938,0.0]]"
X2 = "[[2.0,0.0,2.449489742783178,0.0]]"


def cli_invocations(seed: int, tmp: str) -> dict:
    """name -> argv of the ``sigmatoda`` commands that ``cli_digest`` runs.

    An invocation with ``--out`` writes to ``tmp/<name>``.
    """
    g1, g2, conic = (str(ROOT / "curves" / n) for n in (
        "lemniscatic_g1.json", "quintic_g2.json", "poncelet_torsion3_g1.json"))
    s = str(seed)

    def out(name):
        return ["--out", os.path.join(tmp, name)]

    return {
        "periods": ["periods", "--curve", g1],
        "periods_g2_out": ["periods", "--curve", g2, *out("periods_g2_out")],
        "sigma": ["sigma", "--curve", g1, "--u", "0.31,0.12"],
        "sigma_origin": ["sigma", "--curve", g1, "--u", "0,0"],
        "abel": ["abel", "--curve", g1, "--points", X2],
        "verify_addition": ["verify-addition", "--curve", g2, "--samples", "5",
                            "--seed", s],
        "division": ["division", "--curve", g1, "--n", "5"],
        "torsion": ["torsion", "--curve", g1, "--N", "3"],
        "torsion_g2": ["torsion", "--curve", g2, "--N", "5"],
        "toda_run_csv": ["toda-run", "--format", "csv", "--curve", g1, "--point",
                         TORSION3, "--sites", "3", "--seed", s],
        "toda_run_json_out": ["toda-run", "--curve", g1, "--point", X2, "--sites", "3",
                              "--steps", "3", "--seed", s, *out("toda_run_json_out")],
        "spectral": ["spectral", "--curve", g1, "--point", TORSION3, "--sites", "3"],
        "poncelet": ["poncelet", "--conic", conic, "--N", "3"],
        "argparse_error": ["periods"],
        "verify_all_out": ["verify-all", "--seed", s, *out("verify_all_out")],
    }


def verify_all_results(path: str) -> list:
    """``verify-all --out`` results without ``elapsed`` and the ``*_seconds`` checks."""
    with open(path) as fh:
        results = json.load(fh)
    for r in results:
        del r["elapsed"]
        r["checks"] = [c for c in r["checks"] if not c["name"].endswith("_seconds")]
    return results


def cli_digest(seed: int, tmp: str, names=None) -> dict:
    """sha256 per invocation of its exit status, stdout, stderr and output file.

    Runs the invocations of ``cli_invocations`` (those in ``names``, if given)
    with their output files in ``tmp``; a missing output file hashes as such.
    """
    from sigmatoda.cli import main

    digests = {}
    for name, argv in cli_invocations(seed, tmp).items():
        if names is not None and name not in names:
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        h = hashlib.sha256(repr(status).encode())
        path = os.path.join(tmp, name)
        if "--out" in argv and not os.path.exists(path):
            h.update(b"no output file")
        elif argv[0] == "verify-all":
            h.update(json.dumps(verify_all_results(path), sort_keys=True).encode())
        else:
            h.update(stdout.getvalue().encode())
            if "--out" in argv:
                with open(path, "rb") as fh:
                    h.update(fh.read())
        h.update(stderr.getvalue().encode())
        digests[name] = h.hexdigest()
    return digests


def digest(seed: int, addition_ops: int, toda_ops: int,
           with_verify_all: bool = False, values: dict | None = None) -> dict:
    """The digests; a ``values`` dict is filled with the numbers behind them."""
    from sigmatoda.verify import canonical_contexts

    toda_state = _workloads().WORKLOADS["toda"].setup(seed)
    results = {"addition": op_results("addition", seed, addition_ops),
               "toda": op_results("toda", seed, toda_ops, toda_state)}
    out = {
        "seed": seed,
        "addition": {"ops": addition_ops, "sha256": op_digest(results["addition"])},
        "toda": {"ops": toda_ops, "sha256": op_digest(results["toda"])},
        "toda_setup": setup_digest(toda_state),
        "toda_constants": constants_digest(toda_state),
        "contexts": contexts_digest(),
    }
    if values is not None:
        values["seed"] = seed
        for name, ops in results.items():
            values[name] = {"residuals": [res.residuals for res in ops],
                            "failures": [[list(f) for f in res.failures] for res in ops]}
        values["toda_constants"] = [
            {"sigma_flat_c": _pairs(spec.frame.sigma_flat_c),
             "zeta_c": _pairs(spec.frame.zeta_c)} for spec in toda_state]
        values["contexts"] = [{"gamma0": _pairs(ctx.gamma0), "kappa": _pairs(ctx.kappa)}
                              for ctx in canonical_contexts()]
    if with_verify_all:
        with tempfile.TemporaryDirectory() as tmp:
            out["cli"] = cli_digest(seed, tmp)
            checks = verify_all_results(os.path.join(tmp, "verify_all_out"))
            out["verify_all"] = verify_all_digest(checks)
        if values is not None:
            values["verify_all"] = {f"{r['index']}.{c['name']}": c["value"]
                                    for r in checks for c in r["checks"]}
        out["generic_periods"] = generic_periods_digest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--addition-ops", type=int, default=120)
    parser.add_argument("--toda-ops", type=int, default=200)
    parser.add_argument("--verify-all", action="store_true")
    parser.add_argument("--values", metavar="FILE",
                        help="write the residuals, set-up constants and checks as JSON")
    args = parser.parse_args(argv)
    values = None if args.values is None else {}
    print(json.dumps(digest(args.seed, args.addition_ops, args.toda_ops,
                            args.verify_all, values), sort_keys=True))
    if values is not None:
        with open(args.values, "w") as fh:
            json.dump(values, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
