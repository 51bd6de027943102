"""Tests of the benchmark itself.

The seed of a workload shuffles the cell order (and, in ``sim-verify``,
picks the memory fill); the rows and geomeans must not depend on it.  The
golden 5-workload subset keeps the check fast.
"""

import json
import subprocess
import sys

import pytest

import run
import tracing
import worker


def run_worker(workload: str, seed: int, tmp_path) -> dict:
    command = [sys.executable, str(run.WORKER), "--workload", workload,
               "--seed", str(seed), "--grid", "golden"]
    if workload == "cold-grid":
        command += ["--store", str(tmp_path / f"store-{seed}")]
    done = subprocess.run(command, env=run.child_env(), capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_seeds_change_the_inputs():
    cells = list(range(30))
    assert worker.shuffled(cells, 1, 0, 0) != worker.shuffled(cells, 2, 0, 0)
    assert worker.memory_fill(1) != worker.memory_fill(2)


@pytest.mark.parametrize("workload", ["cold-grid", "sim-verify"])
def test_two_seeds_give_identical_results(workload, tmp_path):
    first, second = (run_worker(workload, seed, tmp_path) for seed in (1, 2))
    for child in (first, second):
        assert [record["problems"] for record in child["passes"]] \
            == [[]] * len(child["passes"])
    assert first["rows"] and first["rows"] == second["rows"]
    one, two = first["passes"][0], second["passes"][0]
    assert one["cycles_geomean"] == two["cycles_geomean"]
    assert one["energy_geomean"] == two["energy_geomean"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_and_busy_time_of_nested_spans():
    tracer = tracing.Tracer()
    tracer.begin(0)
    # run_sweep [0, 10] > evaluate_kernel [1, 9] > map_kernel [2, 8]
    # > map_kernel [3, 6] (a composite candidate) > route_edge [4, 5]
    tracer.spans = [
        ["sweep.run_sweep", None, 0.0, 10.0, -1, 0, 0],
        ["harness.evaluate_kernel", None, 1.0, 9.0, 0, 1, 0],
        ["mapping.map_kernel", "st", 2.0, 8.0, 1, 1, 0],
        ["mapping.map_kernel", "st", 3.0, 6.0, 2, 1, 0],
        ["router.route_edge", None, 4.0, 5.0, 3, 1, 0],
    ]
    report = tracer.report([10.0])
    assert report["mapping.map_kernel.calls"] == 1
    assert report["mapping.map_kernel.busy_s"] == 6.0
    assert report["mapping.map_kernel.busy_s.st"] == 6.0
    assert report["layer.mapping.engine.busy_s"] == 6.0
    assert report["layer.mapping.engine.self_s"] == 5.0     # 3 + 2
    assert report["layer.eval.harness.self_s"] == 2.0
    assert report["layer.eval.parallel.self_s"] == 2.0
    assert report["layer.mapping.router.self_s"] == 1.0
    assert report["trace.self_coverage_min"] == 1.0
