"""Span tracing for the benchmark's traced run (``--trace 1``).

The wrappers live here, in the benchmark, not in ``src/``.  Each one
replaces a public function of a layer *where its callers look it up*: a
module attribute, a class attribute, or every module that imported the
function by name (``route_edge`` is bound separately in ``common``,
``plaid_mapper`` and ``annealing``).  Untraced runs never import this
module, so they carry no wrapper at all.

A span records name, tag, start, end, parent span and cell id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the time its direct children cover; a layer's busy time is the union of
its spans (the outermost span of each nest).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: Span-name prefix -> the repro module (layer) the span instruments.
LAYERS = {
    "sweep": "eval.parallel",
    "harness": "eval.harness",
    "workloads": "workloads",
    "cache": "eval.cache",
    "mapping": "mapping.engine",
    "plaid": "mapping.plaid_mapper",
    "race": "mapping.race",
    "router": "mapping.router",
    "power": "power",
    "sim": "sim",
    "interp": "ir.interpreter",
}

#: ``Architecture.style`` -> the fabric tag of ``mapping.map_kernel`` spans.
STYLE_TAGS = {"spatio-temporal": "st", "spatial": "spatial", "plaid": "plaid"}

#: Span fields, in record order.
NAME, TAG, START, END, PARENT, CELL, PHASE = range(7)

SETUP = -1


class Tracer:
    """In-memory span recorder.  ``phase`` is ``SETUP`` or the index of the
    timed pass the spans belong to; ``cell`` is the id spans of one grid
    cell share."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cell = 0
        self.phase = SETUP
        self.phase_counts: dict[int, dict[str, float]] = {}
        self.counts = self._counts_for(SETUP)

    def _counts_for(self, phase: int) -> dict[str, float]:
        return self.phase_counts.setdefault(phase, defaultdict(float))

    def begin(self, phase: int) -> None:
        """Attribute the spans and counts that follow to ``phase``."""
        self.phase = phase
        self.counts = self._counts_for(phase)

    def new_cell(self) -> None:
        self.cell += 1

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        spans = self.spans
        return any(spans[index][NAME] == name for index in self._stack)

    def span(self, fn, name: str, tag=None, on_result=None,
             new_cell: bool = False):
        """``fn`` wrapped to record one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_cell:
                self.cell += 1
            record = [name, tag(*args) if tag else None, 0.0, 0.0,
                      stack[-1] if stack else -1, self.cell, self.phase]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, fn, name: str):
        """``fn`` wrapped to count calls only (for functions called too
        often for a span each, like ``min_transport_latency``)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    def report(self, pass_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics of the timed passes, as per-pass means.

        Also reports the set-up phase's ``get_dfg`` busy time, and the
        lowest share of a pass's wall time that span self times cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]

        out: dict[str, float] = defaultdict(float)
        covered = defaultdict(float)
        for index, record in enumerate(spans):
            name, tag, start, end, parent, _cell, phase = record
            duration = end - start
            layer = LAYERS[name.split(".", 1)[0]]
            names, layers = set(), set()
            while parent >= 0:
                names.add(spans[parent][NAME])
                layers.add(LAYERS[spans[parent][NAME].split(".", 1)[0]])
                parent = spans[parent][PARENT]
            if phase == SETUP:
                if name == "workloads.get_dfg" and name not in names:
                    out["setup.get_dfg_s"] += duration
                continue
            self_time = duration - child_time[index]
            covered[phase] += self_time
            out[f"layer.{layer}.self_s"] += self_time
            if layer not in layers:
                out[f"layer.{layer}.busy_s"] += duration
            if name not in names:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += duration
                if tag is not None:
                    out[f"{name}.busy_s.{tag}"] += duration
            out["trace.spans_per_pass"] += 1

        passes = len(pass_walls)
        for phase in range(passes):
            for key, value in self.phase_counts.get(phase, {}).items():
                out[key] += value
        report = {key: (value if key.startswith("setup.") else value / passes)
                  for key, value in out.items()}
        report["trace.self_coverage_min"] = min(
            covered[phase] / wall for phase, wall in enumerate(pass_walls))
        for ratio, hits, calls in RATIOS:
            report[ratio] = _share(report.get(hits, 0.0),
                                   report.get(calls, 0.0))
        return report


#: Derived ratios: (metric, numerator count, denominator count).
RATIOS = (
    ("cache.hit_ratio", "cache.store_get.hits", "cache.store_get.calls"),
    ("router.route_edge.success_ratio", "router.route_edge.routed",
     "router.route_edge.calls"),
    ("sim.verified_ratio", "sim.verified", "sim.run.calls"),
)


def _share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when the layer did no work."""
    return part / whole if whole else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark drives."""
    from repro.eval import cache, harness, parallel
    from repro.ir.interpreter import DFGInterpreter
    from repro.mapping import (
        annealing, common, engine, plaid_mapper, race, router,
    )
    from repro.sim import machine

    def patch(owner, attr, name, **options):
        setattr(owner, attr, tracer.span(getattr(owner, attr), name,
                                         **options))

    def store_get(result):
        if result is not None and not isinstance(result, cache.CachedFailure):
            tracer.counts["cache.store_get.hits"] += 1

    def mapped(mapping):
        # Composites (``best``) nest candidate map_kernel calls; count
        # each search once, at the outermost call.
        if tracer.inside("mapping.map_kernel"):
            return
        stats = getattr(mapping, "stats", None)
        if stats is not None:
            tracer.counts["mapping.attempts"] += (
                sum(c.attempts for c in stats.candidates)
                if stats.candidates else stats.attempts)

    def routed(route):
        if route is not None:
            tracer.counts["router.route_edge.routed"] += 1

    def simulated(report):
        tracer.counts["sim.cycles"] += report.cycles
        tracer.counts["sim.verified"] += report.verified is True

    patch(parallel, "run_sweep", "sweep.run_sweep")
    patch(harness, "evaluate_kernel", "harness.evaluate_kernel",
          new_cell=True)
    patch(harness, "get_dfg", "workloads.get_dfg")
    patch(cache, "fingerprint", "cache.fingerprint")
    patch(cache.ResultStore, "get", "cache.store_get", on_result=store_get)
    patch(cache.ResultStore, "put", "cache.store_put")
    patch(engine, "map_kernel", "mapping.map_kernel",
          tag=lambda key, dfg, arch, *rest: STYLE_TAGS[arch.style],
          on_result=mapped)
    patch(plaid_mapper._State, "place_group_best", "plaid.place_group_best")
    patch(race, "run_composite", "race.run_composite")
    route_edge = tracer.span(router.route_edge, "router.route_edge",
                             on_result=routed)
    latency = tracer.counter(router.min_transport_latency,
                             "router.min_transport_latency.calls")
    for module in (router, common, plaid_mapper, annealing):
        module.route_edge = route_edge
        if hasattr(module, "min_transport_latency"):
            module.min_transport_latency = latency
    for attr in ("activity_from_mapping", "activity_from_spatial",
                 "fabric_power", "fabric_area", "energy_nj"):
        patch(harness, attr, "power.price")
    patch(machine, "compile_mapping", "sim.compile")
    patch(machine.CGRASimulator, "run", "sim.run", on_result=simulated)
    patch(DFGInterpreter, "prepare_memory", "interp.prepare_memory")
    patch(DFGInterpreter, "run", "interp.reference")
