"""One benchmark child: a fresh interpreter that sets up one workload and
times its passes.

``run.py`` spawns this script rather than importing it, so every set-up
starts cold: imports, the evaluation memo, the MRRG pool and the route
cores.  The last line of standard output is one JSON object holding the
set-up times, one record per timed pass, the rows of the first pass and,
with ``--trace 1``, the per-layer report of :mod:`tracing`.

Each pass checks its own outputs; a cell that errors or fails a check is
counted in the pass's ``failed`` and named in ``problems``.
"""

import time

T_START = time.perf_counter()

import argparse          # noqa: E402 - imports are part of the set-up time
import json              # noqa: E402
import math              # noqa: E402
import random            # noqa: E402
import resource          # noqa: E402
import sys               # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock         # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_small_grid.json"
WORKLOADS = ("cold-grid", "warm-grid", "sim-verify")
TEMPORAL_ARCHS = ("st", "plaid")
GOLDEN_FIELDS = ("mapper", "ii", "cycles", "energy")
#: Cells per ``run_sweep`` call in a cold pass (~1 s of mapping), so the
#: host clock can probe between calls of a pass that lasts ~8 s.
COLD_CHUNK_CELLS = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed budget; at least one pass always runs "
                             "(cold-grid runs exactly one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=0,
                        help="index of this child within its run")
    parser.add_argument("--store", help="result store directory "
                                        "(grid workloads)")
    parser.add_argument("--reference", help="JSON rows a warm-grid pass "
                                            "must reproduce")
    parser.add_argument("--grid", choices=("default", "golden"),
                        default="default",
                        help="golden = the 5-workload subset of the "
                             "golden fixture (keeps tests fast)")
    parser.add_argument("--t0", type=float, default=None,
                        help="perf_counter reading taken by the parent "
                             "just before spawning this process")
    parser.add_argument("--probe", type=float, default=None,
                        help="host probe the parent took just before t0")
    parser.add_argument("--spans", help="file to write the traced spans to")
    return parser.parse_args(argv)


def shuffled(items, *salt):
    """``items`` in an order fixed by the seed and ``salt``."""
    order = list(items)
    random.Random("/".join(map(str, salt))).shuffle(order)
    return order


def shuffled_workloads(cells, *salt):
    """``cells`` with their workloads in an order fixed by ``salt``.

    Each workload's cells stay together in grid order, as ``repro sweep``
    runs them, so the same cell pays the workload's DFG build in every
    order; otherwise per-cell times would depend on the seed.
    """
    blocks: dict[str, list] = {}
    for cell in cells:
        blocks.setdefault(cell.workload, []).append(cell)
    return [cell for name in shuffled(blocks, *salt) for cell in blocks[name]]


def memory_fill(seed: int) -> int:
    """The ``prepare_memory`` fill value sim-verify derives from its seed."""
    return random.Random(f"fill/{seed}").randrange(1, 1 << 16)


def geomean(values) -> float:
    """Geometric mean, summed in sorted order so it never depends on the
    order the cells ran in."""
    values = sorted(values)
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def cell_key(cell) -> str:
    return "/".join(cell.key())


def load_golden() -> tuple[dict, dict]:
    data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    rows = {(row["workload"], row["arch"]): row for row in data["results"]}
    return data["grid"], rows


class PassRecord:
    """What one timed pass measured and found wrong.

    ``wall_s``/``cell_s`` (seconds per cell key) are calibrated to the
    reference host speed (:mod:`hostclock`) once the probe after them is
    taken; the ``raw_`` fields are the wall clock as read.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.raw_wall_s = 0.0
        self.raw_cell_s: dict[str, float] = {}
        self.wall_s = 0.0
        self.cell_s: dict[str, float] = {}
        self.rows: dict[str, dict] = {}
        self.problems: list[str] = []
        self.failed = 0

    def timed(self, clock, wall_s: float, cell_s: dict[str, float]) -> None:
        """Add one timed unit of this pass."""
        self.raw_wall_s += wall_s
        self.raw_cell_s.update(cell_s)

        def calibrate(factor: float) -> None:
            self.wall_s += wall_s * factor
            self.cell_s.update((key, seconds * factor)
                               for key, seconds in cell_s.items())

        clock.add(calibrate)

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        self.problems.append(f"{key}: {reason}")

    def finish(self, keep_rows: bool) -> None:
        """Reduce the rows to their geomeans (keeping every pass's rows
        would make peak memory grow with the number of passes)."""
        cycles = [row["cycles"] for row in self.rows.values()]
        energy = [row["energy"] for row in self.rows.values()]
        self.summary = {
            "cycles_total": sum(cycles),
            "cycles_geomean": geomean(cycles) if cycles else None,
            "energy_geomean": geomean(energy) if energy else None,
        }
        if not keep_rows:
            self.rows = {}

    def as_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "raw_wall_s": self.raw_wall_s,
            "cells": len(self.cell_s),
            "cell_s": self.cell_s,
            "raw_cell_s": self.raw_cell_s,
            "failed": self.failed,
            "problems": self.problems[:10],
            "counters": self.counters,
            **self.summary,
        }


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------
def grid_cells(parallel, grid: str, arch_keys=None):
    workloads = load_golden()[0]["workloads"] if grid == "golden" else None
    return parallel.build_grid(workloads, arch_keys)


def grid_pass(record, parallel, cache, cells, check, clock, chunk):
    """Sweep ``cells`` into the active store, ``chunk`` cells per
    ``run_sweep`` call so the host clock can probe between calls."""
    for start in range(0, len(cells), chunk):
        began = time.perf_counter()
        report = parallel.run_sweep(cells[start:start + chunk], jobs=1)
        record.timed(clock, time.perf_counter() - began,
                     {cell_key(outcome.cell): outcome.seconds
                      for outcome in report.outcomes})
        for outcome in report.outcomes:
            key = cell_key(outcome.cell)
            if not outcome.ok:
                record.fail(key, f"{outcome.error_type}: {outcome.error}")
                continue
            row = cache.result_to_dict(outcome.result)
            record.rows[key] = row
            check(record, outcome, key, row)


def golden_check(golden_rows):
    def check(record, outcome, key, row):
        want = golden_rows.get((row["workload"], row["arch_key"]))
        if want is None:
            return
        got = {field: row[field] for field in GOLDEN_FIELDS}
        if got != {field: want[field] for field in GOLDEN_FIELDS}:
            record.fail(key, f"golden mismatch {got}")
    return check


def warm_check(reference):
    def check(record, outcome, key, row):
        if not outcome.from_cache:
            record.fail(key, "recomputed instead of read from the store")
        elif reference.get(key) != row:
            record.fail(key, "differs from its cold-grid row")
    return check


# ---------------------------------------------------------------------------
# sim-verify
# ---------------------------------------------------------------------------
class SimCell:
    """One temporal grid cell mapped and priced in set-up."""

    def __init__(self, cell, mapping, power) -> None:
        self.key = cell_key(cell)
        self.cell = cell
        self.workload = cell.workload
        self.mapping = mapping
        self.power = power


def map_sim_cells(cells, seed, timed):
    """Map and price every cell; ``timed(seconds)`` gets the time of each
    chunk of ``COLD_CHUNK_CELLS`` cells, so set-up is calibrated the way a
    cold pass is."""
    from repro.eval import harness
    from repro.mapping import engine as mapping_engine
    from repro.power.model import activity_from_mapping, fabric_power

    mapped = {}
    order = shuffled_workloads(cells, "map", seed)
    began = time.perf_counter()
    for count, cell in enumerate(order, 1):
        arch = harness.build_arch(cell.arch_key)

        def seed_for(key, cell=cell):
            # The seed evaluate_kernel uses: the simulated mapping is the
            # one the sweep prices.
            return harness._seed_for(cell.workload, cell.arch_key, key)

        mapping = mapping_engine.map_kernel(
            cell.mapper, harness.get_dfg(cell.workload), arch, seed_for)
        power = fabric_power(arch, activity_from_mapping(mapping))
        mapped[cell] = SimCell(cell, mapping, power)
        if count % COLD_CHUNK_CELLS == 0 or count == len(order):
            timed(time.perf_counter() - began)
            began = time.perf_counter()
    return [mapped[cell] for cell in cells]


def sim_pass(record, sim_cells, fill, order_salt, golden_rows, clock,
             tracer):
    from repro.ir.interpreter import DFGInterpreter
    from repro.power.report import energy_nj
    from repro.sim import CGRASimulator

    cell_s = {}
    start = time.perf_counter()
    for sim_cell in shuffled_workloads(sim_cells, *order_salt):
        if tracer is not None:
            tracer.new_cell()
        mapping = sim_cell.mapping
        cell_start = time.perf_counter()
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=fill)
        report = CGRASimulator(mapping).run(memory, engine="compiled")
        key = sim_cell.key
        cell_s[key] = time.perf_counter() - cell_start
        row = {
            "cycles": report.cycles,
            "energy": energy_nj(sim_cell.power, report.cycles),
            "fu_firings": report.fu_firings,
            "spm_reads": report.spm_reads,
            "spm_writes": report.spm_writes,
            "transport_occupancies": report.transport_occupancies,
            "bank_conflicts": report.bank_conflicts,
            "verified": report.verified,
        }
        record.rows[key] = row
        if report.verified is not True:
            record.fail(key, f"not verified: {report.mismatches[:3]}")
        elif report.cycles != mapping.total_cycles():
            record.fail(key, f"simulated {report.cycles} cycles, priced "
                             f"{mapping.total_cycles()}")
        cell = sim_cell.cell
        want = golden_rows.get((cell.workload, cell.arch_key))
        if want is not None and (row["cycles"], row["energy"]) \
                != (want["cycles"], want["energy"]):
            record.fail(key, "cycles/energy differ from the golden fixture")
    record.timed(clock, time.perf_counter() - start, cell_s)


# ---------------------------------------------------------------------------
def main(argv=None) -> None:
    args = parse_args(argv)
    t0 = T_START if args.t0 is None else args.t0

    from repro.eval import cache, harness, parallel
    from repro.mapping import engine as mapping_engine, routecore
    from repro.sim import CGRASimulator  # noqa: F401 - part of set-up
    from repro.sim.engine import simulation_engine

    setup = {"import_s": time.perf_counter() - T_START}
    clock = hostclock.HostClock(args.probe)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    golden_rows = load_golden()[1]
    start = time.perf_counter()
    harness.configure_store(args.store)   # None = no persistent store
    setup["store_open_s"] = time.perf_counter() - start
    setup["map_s"] = 0.0

    if args.workload == "sim-verify":
        cells = grid_cells(parallel, args.grid, list(TEMPORAL_ARCHS))
        clock.timed(setup, "setup_s", time.perf_counter() - t0)
        before_map = setup["raw_setup_s"]
        sim_cells = map_sim_cells(
            cells, args.seed,
            lambda seconds: clock.timed(setup, "setup_s", seconds))
        setup["map_s"] = setup["raw_setup_s"] - before_map
        t0 = time.perf_counter()
        fill = memory_fill(args.seed)

        def run_pass(record, index):
            sim_pass(record, sim_cells, fill, (args.seed, args.child, index),
                     golden_rows, clock, tracer)
    else:
        cells = grid_cells(parallel, args.grid)
        if args.workload == "cold-grid":
            check, chunk = golden_check(golden_rows), COLD_CHUNK_CELLS
        else:
            reference = json.loads(Path(args.reference).read_text("utf-8"))
            check, chunk = warm_check(reference), len(cells)

        def run_pass(record, index):
            order = shuffled_workloads(cells, args.seed, args.child, index)
            grid_pass(record, parallel, cache, order, check, clock, chunk)

    # Set-up ends at the first timed call; the probes the clock takes
    # here are the benchmark's own and are not counted.
    clock.timed(setup, "setup_s", time.perf_counter() - t0)
    clock.flush()
    stats, pool = harness.EVAL_STATS, mapping_engine.default_pool().stats

    def counters():
        return {"harness.computed": stats.computed,
                "harness.store_hits": stats.store_hits,
                "mapping.pool.created": pool.created,
                "mapping.pool.adopted": pool.adopted,
                "mapping.pool.resets": pool.resets}

    records, timed_start = [], time.perf_counter()
    while True:
        index = len(records)
        if tracer is not None:
            tracer.begin(index)
        if index and args.workload == "warm-grid":
            # A fresh sweep starts with empty memos and reopens the store;
            # only the imports stay warm.
            harness.clear_caches()
            harness.configure_store(args.store)
        record = PassRecord()
        before = counters()
        run_pass(record, index)
        record.counters = {name: value - before[name]
                           for name, value in counters().items()}
        record.finish(keep_rows=not records)
        records.append(record)
        if args.workload == "cold-grid" \
                or time.perf_counter() - timed_start >= args.seconds:
            break
    clock.flush()

    passes = [record.as_dict() for record in records]
    result = {
        "workload": args.workload,
        "setup": setup,
        "probes": clock.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "engines": {"routing": routecore.active_engine(),
                    "simulation": simulation_engine()},
        "passes": passes,
        "rows": records[0].rows,
    }
    if tracer is not None:
        result["layers"] = tracer.report([p["raw_wall_s"] for p in passes])
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
