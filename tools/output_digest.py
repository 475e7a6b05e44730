"""Digest of the benchmark's outputs, to show that a change keeps them bit for bit.

Run from the root of a checkout:

    python3 tools/output_digest.py --seed 1 --addition-ops 120 --toda-ops 200

It prints one JSON line. For each workload of ``perfbench/workloads.py``
(read, never changed) it holds the sha256 of the residual bytes (float64)
followed by ``repr`` of the failure list, op after op, for ops
0..N-1 of the seed after one set-up. ``toda_frames`` is the sha256 of the
``toda`` set-up frames of the seed. ``--verify-all`` adds the sha256 of the
``verify-all`` checks with ``elapsed`` and the ``*_seconds`` checks left out.

Run it on the parent and on the change on one machine: numpy fuses complex
array products (FMA) on some CPUs, so the digests depend on the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
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


def op_digest(name: str, seed: int, n_ops: int, state=None) -> str:
    """sha256 of ops 0..n_ops-1: residual bytes, then repr of the failures."""
    import numpy as np

    wl = _workloads().WORKLOADS[name]
    state = wl.setup(seed) if state is None else state
    h = hashlib.sha256()
    for k in range(n_ops):
        res = wl.op(state, seed, k)
        h.update(np.array(res.residuals, dtype=float).tobytes())
        h.update(repr(res.failures).encode())
    return h.hexdigest()


def frames_digest(state) -> str:
    """sha256 of the frames a ``toda`` set-up built."""
    import numpy as np

    h = hashlib.sha256()
    for spec in state:
        fr = spec.frame
        h.update(repr((spec.genus, spec.period, fr.periodic)).encode())
        for arr in (fr.c, fr.u0, fr.direction):
            h.update(np.asarray(arr, dtype=complex).tobytes())
        h.update(np.array([fr.v1.x, fr.v1.y, fr.sigma_flat_c, fr.v_c, fr.zeta_c],
                          dtype=complex).tobytes())
    return h.hexdigest()


def verify_all_digest(seed: int) -> str:
    """sha256 of the ``verify-all`` checks without their timings."""
    from sigmatoda import verify

    checks = [[r.index, c.name, repr(c.value), repr(c.tolerance), c.passed, c.note]
              for r in verify.run_all(seed) for c in r.checks
              if not c.name.endswith("_seconds")]
    return hashlib.sha256(json.dumps(checks).encode()).hexdigest()


def digest(seed: int, addition_ops: int, toda_ops: int,
           with_verify_all: bool = False) -> dict:
    toda_state = _workloads().WORKLOADS["toda"].setup(seed)
    out = {
        "seed": seed,
        "addition": {"ops": addition_ops,
                     "sha256": op_digest("addition", seed, addition_ops)},
        "toda": {"ops": toda_ops,
                 "sha256": op_digest("toda", seed, toda_ops, toda_state)},
        "toda_frames": frames_digest(toda_state),
    }
    if with_verify_all:
        out["verify_all"] = verify_all_digest(seed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--addition-ops", type=int, default=120)
    parser.add_argument("--toda-ops", type=int, default=200)
    parser.add_argument("--verify-all", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(digest(args.seed, args.addition_ops, args.toda_ops,
                            args.verify_all), sort_keys=True))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
