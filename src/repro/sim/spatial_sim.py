"""Functional simulator for phased spatial mappings.

A spatial mapping executes phase by phase: every phase re-runs the whole
iteration space in pipelined dataflow order, with cut values spilled to
(and reloaded from) per-value SPM arrays indexed by the flat iteration
number.  The simulator executes exactly that program against real data and
verifies the final arrays against the reference interpreter, which checks
the partitioner's correctness: phase coverage, spill bookkeeping, and the
constraint that loop-carried circuits never straddle phases.

Report accounting and verification share the engine layer
(:mod:`repro.sim.engine`): :meth:`SpatialSimulator.simulate` returns the
same :class:`~repro.sim.engine.SimulationReport` the temporal simulator
produces — firings per node execution, SPM traffic including spill
stores/reloads, the phased mapping's cycle model, and the tri-state
``verified`` flag — so the harness and CLI print one report format for
every fabric style.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.ir.graph import DFG
from repro.ir.interpreter import MemoryImage, iteration_window
from repro.ir.ops import OP_ARITY, OP_EVAL, Opcode, to_unsigned
from repro.mapping.spatial_mapper import SpatialMapping
from repro.sim.engine import SimulationReport, finish_verify, resolve_engine
from repro.sim.trace import TraceRecorder


def _spill_name(net: int) -> str:
    return f"__spill_{net}"


class SpatialSimulator:
    """Execute a phased spatial mapping functionally."""

    def __init__(self, mapping: SpatialMapping,
                 trace: TraceRecorder | None = None) -> None:
        self.mapping = mapping
        self.dfg: DFG = mapping.dfg
        self.trace = trace

    def run(self, memory: MemoryImage, iterations: int | None = None,
            verify: bool = True) -> list[str]:
        """Run all phases; returns the list of mismatches (empty = good)."""
        return self.simulate(memory, iterations=iterations,
                             verify=verify).mismatches

    def simulate(self, memory: MemoryImage, iterations: int | None = None,
                 verify: bool = True,
                 engine: str | None = None) -> SimulationReport:
        """Run all phases and return the shared simulation report.

        ``engine`` is accepted for harness/CLI symmetry with the
        temporal simulator and validated against the engine registry,
        but the spatial functional model has a single implementation —
        every engine name executes the same phased replay."""
        resolve_engine(engine)
        dfg = self.dfg
        total_iters = iteration_window(dfg, iterations)
        reference = memory.copy()
        working = memory.copy()
        spills: dict[str, list[int]] = {}
        report = SimulationReport(
            iterations=total_iters,
            cycles=self.mapping.total_cycles(total_iters),
        )

        for phase in self.mapping.phases:
            members = [item.node_id for item in phase.items
                       if item.kind == "node"]
            member_set = set(members)
            order = self._phase_order(member_set)
            history: dict[int, list[int]] = {nid: [] for nid in members}
            for k in range(total_iters):
                indices = dfg.iteration_indices(k)
                values: dict[int, int] = {}
                for node_id in order:
                    value = self._execute(node_id, k, indices, member_set,
                                          values, history, working, spills,
                                          report)
                    values[node_id] = value
                    history[node_id].append(value)
                    if self.trace is not None:
                        self.trace.record(phase.index, "exec",
                                          node=node_id, iteration=k,
                                          phase=phase.index, value=value)
                # Spill stores for cut values.
                for item in phase.items:
                    if item.kind == "spill_store":
                        report.spm_writes += 1
                        report.transport_occupancies += 1
                        spills.setdefault(
                            _spill_name(item.node_id),
                            [0] * total_iters,
                        )[k] = values[item.node_id]

        return finish_verify(report, dfg, reference, working, total_iters,
                             verify)

    # ------------------------------------------------------------------
    def _phase_order(self, member_set: set[int]) -> list[int]:
        """Topological order of phase members over distance-0 edges."""
        in_deg = {nid: 0 for nid in member_set}
        for edge in self.dfg.edges:
            if edge.distance == 0 and edge.src in member_set \
                    and edge.dst in member_set and edge.src != edge.dst:
                in_deg[edge.dst] += 1
        ready = sorted(n for n, d in in_deg.items() if d == 0)
        order = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for edge in self.dfg.out_edges(current):
                if edge.distance == 0 and edge.dst in member_set \
                        and edge.dst != edge.src:
                    in_deg[edge.dst] -= 1
                    if in_deg[edge.dst] == 0:
                        ready.append(edge.dst)
        if len(order) != len(member_set):
            raise SimulationError("phase members are cyclic at distance 0")
        return order

    def _execute(self, node_id: int, k: int, indices, member_set,
                 values, history, working: MemoryImage,
                 spills: dict[str, list[int]],
                 report: SimulationReport) -> int:
        dfg = self.dfg
        node = dfg.node(node_id)
        operands: dict[int, int] = {}
        for edge in dfg.in_edges(node_id):
            if edge.is_ordering:
                continue
            if edge.distance == 0:
                if edge.src in member_set:
                    operands[edge.operand_index] = values[edge.src]
                else:
                    spill = spills.get(_spill_name(edge.src))
                    if spill is None:
                        raise SimulationError(
                            f"phase reads unspilled value of node {edge.src}"
                        )
                    report.spm_reads += 1
                    report.transport_occupancies += 1
                    operands[edge.operand_index] = spill[k]
            else:
                src_iter = k - edge.distance
                if edge.src not in member_set:
                    raise SimulationError(
                        "loop-carried dependence crosses phases"
                    )
                if src_iter < 0:
                    operands[edge.operand_index] = to_unsigned(
                        int(node.annotations.get("init", 0)))
                else:
                    operands[edge.operand_index] = history[edge.src][src_iter]

        report.fu_firings += 1
        if node.op is Opcode.LOAD:
            report.spm_reads += 1
            return working.read(node.access.array,
                                node.access.address(indices))
        if node.op is Opcode.STORE:
            report.spm_writes += 1
            value = operands.get(0)
            if value is None and node.const is not None:
                value = to_unsigned(node.const)
            if value is None:
                raise SimulationError(f"store '{node.name}' without value")
            working.write(node.access.array, node.access.address(indices),
                          value)
            return value
        arity = OP_ARITY[node.op]
        args = []
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
                raise SimulationError(f"'{node.name}' missing operand {slot}")
        return OP_EVAL[node.op](*args)
