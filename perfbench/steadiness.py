"""Run-to-run spread of the end-to-end metrics against their bounds.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads toda --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness.json

Each (workload, seed) is one untraced ``run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``; the workloads take turns for each
seed, one process at a time. For each
metric the spread is the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median; it should stay below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, help="write the runs and spreads here")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    runs = {name: [] for name in names}
    # workloads take turns, so that each samples the host's drift alike
    for seed in args.seeds:
        for name in names:
            cmd = [sys.executable, *bench["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[name].append({
                "seed": seed, "wall_s": time.perf_counter() - t0,
                **{k: result[k] for k in ("correct", "attempted", "failed")},
                **{k: v["value"] for k, v in result["metrics"].items()}})
            print(name, json.dumps(runs[name][-1]), flush=True)
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for name in names:
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs[name]]
            s = spread(values)
            metrics[m["name"]] = {"median": statistics.median(values),
                                  "spread": s, "bound": m["bound"],
                                  "below_third_of_bound": s < m["bound"] / 3}
            print(f"{name} {m['name']}: median {statistics.median(values):.6g} "
                  f"spread {s:.4f} bound {m['bound']}", flush=True)
        report["workloads"][name] = {"metrics": metrics, "runs": runs[name]}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
