"""Self-tests of the benchmark; run with ``python -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("theta.calls", "theta.terms", "sigma.abel.node_builds",
          "sigma.abel.legs", "sigma.abel.points")


def test_benchmark_json_names_what_the_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fixed_seed_regenerates_inputs(name):
    wl = WORKLOADS[name]
    first = wl.op(wl.setup(5), 5, 3)
    again = wl.op(wl.setup(5), 5, 3)
    other = wl.op(wl.setup(6), 6, 3)
    assert np.array_equal(first.residuals, again.residuals, equal_nan=True)
    assert first.failures == again.failures
    assert not np.array_equal(first.residuals, other.residuals, equal_nan=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_its_gates(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0"]) == 0
    record, result = (json.loads(line) for line in
                      capsys.readouterr().out.strip().splitlines()[-2:])
    assert result["correct"] and result["attempted"] >= run.SETUP_REPEATS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["record"]["seed"] == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_only_observes(name, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], trace_ops=2)
    runs = [run.measure_traced(wl, 4, 0.0, run.Tally(), tmp_path / f"{i}.json")
            for i in range(2)]
    for metrics, detail in runs:
        assert detail["residuals_identical"] and detail["absent_entry_points"] == []
        assert all(metrics[k] is not None for k in spans.PER_LAYER_UNITS)
        # layer self times and the unattributed share cover the traced loop
        per_op = detail["traced_s"] / (detail["passes"] * wl.trace_ops)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        covered = self_sum + metrics["trace.unattributed_share"] * per_op
        assert covered == pytest.approx(per_op, rel=1e-9)
    assert [runs[0][0][k] for k in COUNTS] == [runs[1][0][k] for k in COUNTS]


def test_removed_entry_point_is_none_not_zero(monkeypatch):
    wl = WORKLOADS["toda"]
    state = wl.setup(2)
    # as if a later change renamed them; sigma keeps its own bindings
    monkeypatch.delattr(sys.modules["sigmatoda.theta"], "_theta_sum")
    monkeypatch.delattr(sys.modules["sigmatoda.periods"], "_continue_y")
    tracer = spans.Tracer()
    with tracer.installed():
        assert wl.op(state, 2, 0).passed
    metrics = spans.summarize(tracer, 1.0, 1)
    assert metrics["theta.calls"] is None and metrics["theta.self_s"] is None
    assert metrics["periods.continue_y.calls"] is None
    assert metrics["sigma.eval.calls"] > 0
    assert metrics["periods.continuous_sqrt.calls"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toda", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
