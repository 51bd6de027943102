"""End-to-end benchmark of the repro sweep pipeline.

    python3 perfbench/run.py --workload cold-grid --seed 1 --seconds 12 --trace 0

Runs one workload (``cold-grid``, ``warm-grid`` or ``sim-verify``, see
README.md) and prints every metric by name and unit, a provenance line,
and, as the last line, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced child and reports the per-layer metrics.

Every set-up happens in a fresh child interpreter (``worker.py``) whose
environment has every ``REPRO_*`` variable removed, so a stray store
directory, job count or engine choice cannot leak in.  Result stores live
in a scratch directory under ``.perfbench-out/`` that is deleted when the
run ends; traced spans are written there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import REF_PROBE_S, probe_host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("cold-grid", "warm-grid", "sim-verify")

#: A run must end within 180 s; children are killed past this point.
RUN_DEADLINE_S = 170.0
#: Fresh children per run for the workloads whose passes are short.
CHILDREN = {"warm-grid": 3, "sim-verify": 2}
#: Calibrated length of one cold-grid pass (see hostclock.py).  Each cold
#: pass is a child of its own; a run makes ``round(seconds / COLD_PASS_S)``
#: of them, and at least ``MIN_COLD_PASSES``: every pass runs the
#: workloads in another order, and the pass time depends on the order by
#: ~6% (MRRG pool and route-core reuse), so the median needs a few orders.
COLD_PASS_S = 7.0
MIN_COLD_PASSES = 3
#: The highest percentile with at least ten cells beyond it in the
#: 90-cell grid.
TAIL_PERCENTILE = 88

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "cells_per_s": "cells/s",
    "cell_p50_s": "s",
    "cell_p88_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "cycles_geomean": "cycles",
    "energy_nj_geomean": "nJ",
    "sim_cycles_per_s": "cycles/s",
}

#: Per-layer metrics of the traced run (per timed pass): name -> unit.
LAYER_MODULES = (
    "eval.parallel", "eval.harness", "workloads", "eval.cache",
    "mapping.engine", "mapping.plaid_mapper", "mapping.race",
    "mapping.router", "power", "sim", "ir.interpreter",
)
PER_LAYER = {
    **{f"layer.{module}.{kind}": "s" for module in LAYER_MODULES
       for kind in ("busy_s", "self_s")},
    "sweep.run_sweep.busy_s": "s",
    "harness.evaluate_kernel.calls": "count",
    "harness.evaluate_kernel.busy_s": "s",
    "harness.computed": "count",
    "harness.store_hits": "count",
    "workloads.get_dfg.calls": "count",
    "workloads.get_dfg.busy_s": "s",
    "cache.fingerprint.calls": "count",
    "cache.fingerprint.busy_s": "s",
    "cache.store_get.calls": "count",
    "cache.store_get.busy_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.store_put.calls": "count",
    "cache.store_put.busy_s": "s",
    "mapping.map_kernel.calls": "count",
    "mapping.map_kernel.busy_s": "s",
    "mapping.map_kernel.busy_s.st": "s",
    "mapping.map_kernel.busy_s.spatial": "s",
    "mapping.map_kernel.busy_s.plaid": "s",
    "mapping.map_kernel.share": "ratio",
    "mapping.map_kernel.plaid_share": "ratio",
    "mapping.attempts": "count",
    "mapping.pool.created": "count",
    "mapping.pool.adopted": "count",
    "mapping.pool.resets": "count",
    "plaid.place_group_best.calls": "count",
    "plaid.place_group_best.busy_s": "s",
    "race.run_composite.calls": "count",
    "race.run_composite.busy_s": "s",
    "router.route_edge.calls": "count",
    "router.route_edge.busy_s": "s",
    "router.route_edge.success_ratio": "ratio",
    "router.min_transport_latency.calls": "count",
    "power.price.calls": "count",
    "power.price.busy_s": "s",
    "sim.compile.calls": "count",
    "sim.compile.busy_s": "s",
    "sim.run.calls": "count",
    "sim.run.busy_s": "s",
    "sim.cycles": "cycles",
    "sim.verified_ratio": "ratio",
    "interp.prepare_memory.calls": "count",
    "interp.prepare_memory.busy_s": "s",
    "interp.reference.calls": "count",
    "interp.reference.busy_s": "s",
    "setup.import_s": "s",
    "setup.store_open_s": "s",
    "setup.map_s": "s",
    "setup.get_dfg_s": "s",
    "trace.untraced_cells_per_s": "cells/s",
    "trace.traced_cells_per_s": "cells/s",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage_min": "ratio",
    "trace.spans_per_pass": "count",
    "host.speed": "ratio",
}

class BenchError(Exception):
    """A child failed or the run ran out of time: no result is printed."""


def child_env() -> dict[str, str]:
    """The environment of every child: no ``REPRO_*`` variable (store
    directory, job counts, routing/simulation/native engine knobs), the
    checkout's ``src`` on the path, and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One benchmark run: spawns the children and owns their scratch."""

    def __init__(self, args) -> None:
        self.args = args
        self.start = time.perf_counter()
        self.scratch = OUT_DIR / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.stores = 0

    def new_store(self) -> Path:
        self.stores += 1
        return self.scratch / f"store-{self.stores}"

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, workload: str, index: int, seconds: float = 0.0, *,
              trace: bool = False, store: Path | None = None,
              reference: Path | None = None) -> dict:
        """Run one child to completion and return its JSON record."""
        command = [sys.executable, str(WORKER), "--workload", workload,
                   "--seed", str(self.args.seed), "--seconds", repr(seconds),
                   "--trace", str(int(trace)), "--child", str(index)]
        if store is not None:
            command += ["--store", str(store)]
        if reference is not None:
            command += ["--reference", str(reference)]
        if trace:
            command += ["--spans", str(OUT_DIR / (
                f"spans-{workload}-seed{self.args.seed}.jsonl"))]
        remaining = RUN_DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        probe = probe_host()
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                command + ["--t0", repr(t0), "--probe", repr(probe)],
                cwd=ROOT, env=child_env(),
                capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} child exceeded the run "
                             "deadline") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{workload} child exited {done.returncode}:\n"
                             + done.stderr[-2000:])
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Checks:
    """Cross-child correctness: cells attempted and failed in the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_child(self, child: dict, reference_rows: dict | None) -> None:
        for record in child["passes"]:
            self.attempted += record["cells"]
            self.failed += record["failed"]
            self.problems += record["problems"]
        if reference_rows is None:
            return
        for key, row in child["rows"].items():
            if reference_rows.get(key) != row:
                self.failed += 1
                self.problems.append(f"{key}: differs between children")


# ---------------------------------------------------------------------------
# Workloads: each returns its children, the traced one (if any) last
# ---------------------------------------------------------------------------
def run_cold(run: Run, checks: Checks) -> list:
    def spawn(index, trace=False):
        return run.spawn("cold-grid", index, trace=trace,
                         store=run.new_store())

    if run.args.trace:
        children = [spawn(0), spawn(1, trace=True)]
    else:
        # A fixed pass count per budget: a pass count that depended on how
        # fast the host happened to be would change what the median is
        # taken over.
        passes = max(MIN_COLD_PASSES, round(run.args.seconds / COLD_PASS_S))
        children = [spawn(index) for index in range(passes)]
    for child in children:
        checks.add_child(child, children[0]["rows"])
    return children


def run_warm(run: Run, checks: Checks) -> list:
    store = run.new_store()
    prefill = run.spawn("cold-grid", 0, store=store)
    checks.add_child(prefill, None)
    reference = run.scratch / "cold-rows.json"
    reference.write_text(json.dumps(prefill["rows"]), encoding="utf-8")
    return _timed_children(run, checks, "warm-grid", store=store,
                           reference=reference)


def run_sim(run: Run, checks: Checks) -> list:
    return _timed_children(run, checks, "sim-verify")


def _timed_children(run: Run, checks: Checks, workload: str,
                    **options) -> list:
    count = 2 if run.args.trace else CHILDREN[workload]
    seconds = run.args.seconds / count
    children = [
        run.spawn(workload, index, seconds,
                  trace=bool(run.args.trace) and index == count - 1,
                  **options)
        for index in range(count)
    ]
    for child in children:
        checks.add_child(child, children[0]["rows"])
    return children


RUNNERS = {"cold-grid": run_cold, "warm-grid": run_warm,
           "sim-verify": run_sim}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def pass_rates(children: list, key: str = "cells",
               wall: str = "wall_s") -> list[float]:
    return [record[key] / record[wall]
            for child in children for record in child["passes"]]


def tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank ``TAIL_PERCENTILE`` and the values beyond it."""
    ordered = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def timings(children: list, prefix: str = "") -> tuple[dict, int, int]:
    """The timing metrics from the calibrated fields, or from the raw
    wall clock with ``prefix="raw_"``; plus the cell count and the cells
    beyond the tail percentile.

    The per-cell percentiles are taken over each cell's median time across
    the run's passes: every pass runs the cells in another order, and a
    cell's own time moves with the order (pool reuse, when a garbage
    collection lands), so one cell's passes are pooled first.
    """
    per_cell: dict[str, list[float]] = {}
    for child in children:
        for record in child["passes"]:
            for key, seconds in record[prefix + "cell_s"].items():
                per_cell.setdefault(key, []).append(seconds)
    cell_s = [statistics.median(times) for times in per_cell.values()]
    p88, beyond = tail(cell_s)
    wall = prefix + "wall_s"
    metrics = {
        "cells_per_s": statistics.median(pass_rates(children, wall=wall)),
        "cell_p50_s": statistics.median(cell_s),
        "cell_p88_s": p88,
        "setup_s": statistics.median(
            child["setup"][prefix + "setup_s"] for child in children),
        "sim_cycles_per_s": statistics.median(
            pass_rates(children, "cycles_total", wall)),
    }
    return metrics, len(cell_s), beyond


def end_to_end(children: list, checks: Checks) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes printed next to them."""
    first = children[0]["passes"][0]
    for child in children:
        for record in child["passes"]:
            if (record["cycles_geomean"], record["energy_geomean"]) \
                    != (first["cycles_geomean"], first["energy_geomean"]):
                checks.failed += 1
                checks.problems.append("geomeans differ between passes")
    metrics, cells, beyond = timings(children)
    metrics.update({
        "peak_rss_mb": statistics.median(
            child["peak_rss_mb"] for child in children),
        "ok_ratio": 1.0 - checks.failed / checks.attempted,
        "cycles_geomean": first["cycles_geomean"],
        "energy_nj_geomean": first["energy_geomean"],
    })
    raw = timings(children, "raw_")[0]
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    passes = sum(len(child["passes"]) for child in children)
    notes["cells_per_s"] += f"; median of {passes} passes"
    notes["cell_p50_s"] += f"; {cells} cells x {passes} passes"
    notes["cell_p88_s"] += f"; {cells} cells x {passes} passes, " \
                           f"{beyond} cells beyond"
    notes["setup_s"] += f"; median of {len(children)} set-ups"
    return metrics, notes


def per_layer(children: list) -> tuple[dict, dict]:
    """The per-layer metrics of the traced (last) child."""
    traced, untraced = children[-1], children[:-1]
    records = traced["passes"]
    mean_wall = statistics.fmean(record["raw_wall_s"] for record in records)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update((name, value) for name, value in traced["layers"].items()
                   if name in PER_LAYER)
    for name in records[0]["counters"]:     # program counters, no wrapper
        metrics[name] = statistics.fmean(
            record["counters"][name] for record in records)
    for name in ("import_s", "store_open_s", "map_s"):
        metrics[f"setup.{name}"] = traced["setup"][name]
    metrics["mapping.map_kernel.share"] = \
        metrics["mapping.map_kernel.busy_s"] / mean_wall
    metrics["mapping.map_kernel.plaid_share"] = \
        metrics["mapping.map_kernel.busy_s.plaid"] / mean_wall
    untraced_rate = statistics.median(pass_rates(untraced))
    traced_rate = statistics.median(pass_rates([traced]))
    metrics["trace.untraced_cells_per_s"] = untraced_rate
    metrics["trace.traced_cells_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    metrics["host.speed"] = statistics.median(
        REF_PROBE_S / probe for probe in traced["probes"])
    return metrics, {"trace.spans_per_pass": f"{len(records)} traced passes"}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the package sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(children: list) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "engines": children[0]["engines"],
        "cc": shutil.which("cc"),
    }


# ---------------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro sweep pipeline.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles cell order; in sim-verify also "
                             "picks the memory fill")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced child")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args)
    checks = Checks()
    try:
        children = RUNNERS[args.workload](run, checks)
        if args.trace:
            metrics, notes = per_layer(children)
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(children, checks)
            units = END_TO_END
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}{note}")
    for problem in checks.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(children)))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
