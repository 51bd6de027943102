"""Cycle-accurate simulator for modulo-scheduled mappings (ST and Plaid).

The simulator executes the mapping's static schedule over a window of
iterations with real 16-bit data:

* each cycle, FUs whose slot fires execute their node — loads/stores hit
  the scratchpad, ALU ops evaluate on operand values fetched from the
  fabric's register places (or over a bypass path);
* values travel between places exactly per the routed occupancy tables;
  a consumer failing to find its operand in the expected place at the
  expected cycle is a hard error;
* register-place capacity and SPM ports are enforced every cycle.

After the window, the scratchpad contents are compared word-for-word with
the reference interpreter run over the same iterations — the end-to-end
check the paper uses its cycle-accurate simulator for.

Execution runs through the compiled engine (:mod:`repro.sim.engine`):
:meth:`CGRASimulator.run` compiles the mapping once into per-phase
firing/transport tables and replays them — screened once per iteration
count, then replayed as values alone when no check can fire, or
replayed with every per-cycle check otherwise (and for traced runs).
Every window must lie within the kernel's iteration space
(:func:`~repro.ir.interpreter.iteration_window`).  ``engine=`` (or the
process-wide ``REPRO_SIM_ENGINE`` setting) selects between four
bit-identical backends: ``compiled`` (the PR 3 table replay), ``numpy``
(:mod:`repro.sim.vector` — the same tables evaluated as array
operations), ``native`` (:mod:`repro.native.simgen` — the same tables
emitted as generated C), and ``reference`` — the original interpreted
loop, kept as
:meth:`CGRASimulator.run_reference`, the conformance oracle every other
engine must match bit for bit (same report, same trace, same errors;
``tests/test_sim_engine.py`` and ``tests/test_sim_vector.py`` lock
this).
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SimulationError
from repro.ir.graph import DFG
from repro.ir.interpreter import MemoryImage, iteration_window
from repro.ir.ops import OP_ARITY, OP_EVAL, Opcode, to_unsigned
from repro.mapping.base import Mapping
from repro.sim.engine import (
    CompiledSchedule, SimulationReport, compare_images, compile_mapping,
    finish_verify, resolve_engine,
)
from repro.sim.spm import Scratchpad
from repro.sim.trace import TraceRecorder
from repro.sim.vector import VectorSchedule

__all__ = ["CGRASimulator", "SimulationReport"]


class CGRASimulator:
    """Replay a mapping's configuration against real data."""

    def __init__(self, mapping: Mapping,
                 trace: TraceRecorder | None = None) -> None:
        self.mapping = mapping
        self.dfg: DFG = mapping.dfg
        self.arch = mapping.arch
        self.trace = trace
        self._compiled: CompiledSchedule | None = None
        self._vector: VectorSchedule | None = None
        self._native = None

    # ------------------------------------------------------------------
    def compiled(self) -> CompiledSchedule:
        """The mapping's compiled schedule (compiled once, then reused
        across every window this simulator runs)."""
        if self._compiled is None:
            self._compiled = compile_mapping(self.mapping)
        return self._compiled

    def vector(self) -> VectorSchedule:
        """The numpy replay of :meth:`compiled` (value plans cached per
        iteration count, shared across windows and batches)."""
        if self._vector is None:
            self._vector = VectorSchedule(self.compiled())
        return self._vector

    def native(self):
        """The generated-C replay of :meth:`compiled` (module built and
        disk-cached on first use; falls back to the compiled engine when
        no C toolchain is available)."""
        if self._native is None:
            from repro.native.simgen import NativeSchedule
            self._native = NativeSchedule(self.compiled())
        return self._native

    def run(self, memory: MemoryImage, iterations: int | None = None,
            verify: bool = True,
            engine: str | None = None) -> SimulationReport:
        """Simulate ``iterations`` pipelined iterations starting from
        ``memory`` (which is left untouched; the SPM gets a copy).

        ``engine`` picks the backend (``compiled``/``numpy``/``native``/
        ``reference``); ``None`` defers to the process-wide setting
        (``REPRO_SIM_ENGINE`` / ``set_simulation_engine``).  All four
        produce bit-identical reports, verify results and errors."""
        name = resolve_engine(engine)
        if name == "reference":
            return self.run_reference(memory, iterations=iterations,
                                      verify=verify)
        if name == "numpy":
            return self.vector().execute(memory, iterations=iterations,
                                         verify=verify, trace=self.trace)
        if name == "native":
            return self.native().execute(memory, iterations=iterations,
                                         verify=verify, trace=self.trace)
        return self.compiled().execute(memory, iterations=iterations,
                                       verify=verify, trace=self.trace)

    def run_batch(self, memories, iterations: int | None = None,
                  verify: bool = True, engine: str | None = None,
                  trace=None) -> list[SimulationReport]:
        """Run many memory windows through one compiled schedule.

        ``trace`` overrides the simulator's recorder for this batch:
        one shared :class:`TraceRecorder` (accumulates across windows —
        a ``limit`` fills on the first window) or a sequence of
        per-window recorders.  The ``numpy`` engine simulates the whole
        batch in stacked array passes; traced batches fall back to the
        compiled engine (per-event traces are inherently scalar)."""
        batch_trace = self.trace if trace is None else trace
        name = resolve_engine(engine)
        if name == "reference":
            memories = list(memories)
            traces = CompiledSchedule._window_traces(batch_trace, memories)
            reports = []
            saved = self.trace
            try:
                for memory, window_trace in zip(memories, traces):
                    self.trace = window_trace
                    reports.append(self.run_reference(
                        memory, iterations=iterations, verify=verify))
            finally:
                self.trace = saved
            return reports
        if name == "numpy":
            return self.vector().execute_batch(
                memories, iterations=iterations, verify=verify,
                trace=batch_trace)
        if name == "native":
            return self.native().execute_batch(
                memories, iterations=iterations, verify=verify,
                trace=batch_trace)
        return self.compiled().execute_batch(memories, iterations=iterations,
                                             verify=verify,
                                             trace=batch_trace)

    # ------------------------------------------------------------------
    def run_reference(self, memory: MemoryImage,
                      iterations: int | None = None,
                      verify: bool = True) -> SimulationReport:
        """The interpreted simulator: re-derives the schedule per run with
        per-cycle dict building.  Kept as the conformance oracle for the
        compiled engine (and as the baseline the simulation-time benchmark
        measures against)."""
        dfg = self.dfg
        mapping = self.mapping
        ii = mapping.ii
        total_iters = iteration_window(dfg, iterations)

        reference = memory.copy()
        spm = Scratchpad(self.arch.spm_banks, self.arch.spm_bytes_per_bank)
        spm.load_image(memory.copy())

        end_cycle = (total_iters - 1) * ii + mapping.makespan - 1

        # Static tables: executions and occupancies per absolute cycle.
        exec_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for node in dfg.nodes:
            fu_id, sigma = mapping.placement[node.node_id]
            for k in range(total_iters):
                cycle = sigma + k * ii
                if cycle <= end_cycle:
                    exec_at[cycle].append((node.node_id, k))
        occupancy_at: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        total_occ = 0
        for route in mapping.routes.values():
            for k in range(total_iters):
                for place, cycle in route.places:
                    abs_cycle = cycle + k * ii
                    if abs_cycle <= end_cycle:
                        occupancy_at[abs_cycle].append((place, route.net, k))
                        total_occ += 1

        # Edge -> route-index resolution by structural key (edge identity
        # does not survive ``dfg.edges`` returning copies).
        edge_index = {
            (e.src, e.dst, e.operand_index, e.distance): i
            for i, e in enumerate(dfg.edges)
        }

        outputs: dict[tuple[int, int], int] = {}
        place_values: dict[int, dict[tuple[int, int], int]] = {}
        report = SimulationReport(iterations=total_iters,
                                  cycles=end_cycle + 1)
        report.transport_occupancies = total_occ

        for cycle in range(end_cycle + 1):
            spm.begin_cycle()
            # 1. Execute firings using the *current* place contents.
            fired: list[tuple[int, int, int]] = []
            for node_id, k in exec_at.get(cycle, ()):
                value = self._fire(node_id, k, cycle, place_values,
                                   outputs, spm, report, edge_index)
                fired.append((node_id, k, value))
            for node_id, k, value in fired:
                outputs[(node_id, k)] = value
                if self.trace is not None:
                    fu_id, _sigma = self.mapping.placement[node_id]
                    self.trace.record(cycle, "exec",
                                      node=node_id, iteration=k,
                                      fu=fu_id, value=value)
            # 2. Advance transport: place contents for the NEXT cycle.
            next_values: dict[int, dict[tuple[int, int], int]] = {}
            for place, net, k in occupancy_at.get(cycle + 1, ()):
                value = outputs.get((net, k))
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle + 1}: occupancy of ({net},{k}) at "
                        f"place {place} before production"
                    )
                bucket = next_values.setdefault(place, {})
                bucket[(net, k)] = value
            for place, bucket in next_values.items():
                capacity = self.arch.place(place).capacity
                if len(bucket) > capacity:
                    raise SimulationError(
                        f"cycle {cycle + 1}: place "
                        f"{self.arch.place(place).name} holds {len(bucket)} "
                        f"values, capacity {capacity}"
                    )
            place_values = next_values

        report.bank_conflicts = spm.bank_conflicts
        final = spm.dump_image()
        return finish_verify(report, dfg, reference, final, total_iters,
                             verify)

    # ------------------------------------------------------------------
    def _fire(self, node_id: int, k: int, cycle: int, place_values,
              outputs, spm: Scratchpad, report: SimulationReport,
              edge_index: dict) -> int:
        dfg = self.dfg
        node = dfg.node(node_id)
        operands: dict[int, int] = {}
        for edge in dfg.in_edges(node_id):
            if edge.is_ordering:
                continue
            producer_iter = k - edge.distance
            if producer_iter < 0:
                operands[edge.operand_index] = to_unsigned(
                    int(node.annotations.get("init", 0)))
                continue
            index = edge_index[(edge.src, edge.dst, edge.operand_index,
                                edge.distance)]
            route = self.mapping.routes[index]
            key = (edge.src, producer_iter)
            if route.bypass:
                value = outputs.get(key)
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: bypass operand {key} missing for "
                        f"'{node.name}'"
                    )
            else:
                final_place = route.places[-1][0]
                fu_id, _sigma = self.mapping.placement[node_id]
                if final_place not in self.arch.consume_places[fu_id]:
                    raise SimulationError(
                        f"cycle {cycle}: '{node.name}' on "
                        f"{self.arch.fu(fu_id).name} cannot read place "
                        f"{self.arch.place(final_place).name}"
                    )
                bucket = place_values.get(final_place, {})
                value = bucket.get(key)
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: '{node.name}' expected value "
                        f"{key} in place "
                        f"{self.arch.place(final_place).name}, not there"
                    )
            operands[edge.operand_index] = value

        report.fu_firings += 1
        indices = dfg.iteration_indices(k)
        if node.op is Opcode.LOAD:
            report.spm_reads += 1
            return spm.read(node.access.array, node.access.address(indices))
        if node.op is Opcode.STORE:
            report.spm_writes += 1
            value = operands.get(0)
            if value is None and node.const is not None:
                value = to_unsigned(node.const)
            if value is None:
                raise SimulationError(f"store '{node.name}' without a value")
            spm.write(node.access.array, node.access.address(indices), value)
            return value
        return self._alu(node, operands)

    def _alu(self, node, operands: dict[int, int]) -> int:
        arity = OP_ARITY[node.op]
        args: list[int] = []
        const_used = False
        for slot in range(arity):
            if slot in operands:
                args.append(operands[slot])
            elif node.const is not None and not const_used:
                args.append(to_unsigned(node.const))
                const_used = True
            elif node.op is Opcode.SEL and slot == 2:
                args.append(1)
            else:
                raise SimulationError(
                    f"'{node.name}' missing operand {slot} at execution"
                )
        return OP_EVAL[node.op](*args)

    # ------------------------------------------------------------------
    @staticmethod
    def _compare(expected: MemoryImage, actual: MemoryImage) -> list[str]:
        return compare_images(expected, actual)
