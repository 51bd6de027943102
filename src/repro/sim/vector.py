"""Vectorized numpy execution backend for compiled schedules.

The compiled engine (:mod:`repro.sim.engine`) already reduced simulation
to replaying per-phase firing/transport tables, but it still walks every
(cycle, firing, occupancy) in Python.  This module consumes the *same*
:class:`~repro.sim.engine.CompiledSchedule` tables and evaluates whole
node histories as array operations:

* **Structural screening.**  Every error the compiled engine can raise
  (bypass-before-production, unreadable/missing place deliveries,
  occupancy-before-production, place capacity, SPM ports, SPM bounds,
  missing operands) is decidable from the tables alone — the checks are
  data-independent.  The screen (:func:`repro.sim.engine.screen_schedule`,
  shared with the compiled engine's own screened replay) runs once per
  (schedule, iteration count); if *any* check could fire, the whole run
  is delegated to the compiled engine, which raises the identical error
  at the identical point.  The fast path below therefore only ever executes provably
  error-free windows.
* **SCC value plan.**  Nodes are condensed into strongly connected
  components over data edges (any distance) plus *alias* edges tying
  together memory nodes whose address sets collide on the same array
  (with at least one store).  Acyclic components evaluate their whole
  iteration history in one ``uint16`` array op (ALU), one gather (LOAD
  from provably store-free addresses), or one last-write-wins scatter
  (STORE to addresses no other node touches).  Cyclic components —
  accumulators and aliasing memory clusters — replay their firing
  events in exact schedule order ``(cycle, firing position)``, which
  reproduces the compiled engine's memory-order semantics even for
  mappings that violate the DFG's ordering edges (same MISMATCH, bit
  for bit).
* **Analytic counters.**  Every node fires exactly once per iteration
  in a screened schedule, so firings/SPM traffic/occupancies/bank
  conflicts are computed arithmetically, not counted.
* **Batched windows.**  ``execute_batch`` stacks B same-layout memory
  windows on a leading axis; every array op above carries the batch
  axis, so one pass simulates the whole batch.

**Invariant** (mirroring PR 3/PR 5): numpy execution is bit-identical
to the compiled engine — same :class:`SimulationReport` counters, same
verify results, same errors on malformed mappings.  Per-event tracing
is inherently scalar, so a run with a trace recorder falls back to the
compiled engine (which is bit-identical by the PR 3 invariant).
``tests/test_sim_vector.py`` locks all of this.  Without numpy
installed every run silently delegates to the compiled engine.
"""

from __future__ import annotations

import importlib.util

from repro.ir.interpreter import MemoryImage, iteration_window
from repro.ir.ops import OP_EVAL, Opcode
from repro.sim.engine import (
    _ARG_CONST, _ARG_OPERAND, _EXEC_ALU, _EXEC_LOAD, _EXEC_STORE,
    CompiledSchedule, SimulationReport, finish_verify, screen_schedule,
)

#: numpy loads on the first numpy-engine run (:func:`_numpy`), not on
#: import: this is its only user and not the default engine, so every
#: other process skips its import time and memory.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
np = None

__all__ = ["HAVE_NUMPY", "VectorSchedule", "vec_evaluate"]

_WORD_MASK = 0xFFFF


def _numpy():
    """Bind numpy to this module's ``np`` (imported on first call)."""
    global np
    if np is None:
        import numpy
        np = numpy


def vec_evaluate(op: Opcode, args):
    """Vectorized :func:`repro.ir.ops.evaluate`: identical 16-bit
    semantics on numpy arrays (operands are raw 16-bit patterns; the
    result is a ``uint16`` pattern array).  Scalars broadcast."""
    _numpy()
    u = [np.asarray(a, dtype=np.int64) & _WORD_MASK for a in args]

    def signed(x):
        return x - ((x & 0x8000) << 1)

    a = signed(u[0]) if u else 0
    b = signed(u[1]) if len(u) > 1 else 0
    if op is Opcode.ADD:
        r = a + b
    elif op is Opcode.SUB:
        r = a - b
    elif op is Opcode.MUL:
        r = a * b
    elif op is Opcode.ABS:
        r = np.abs(a)
    elif op is Opcode.SHL:
        r = a << (u[1] & 0xF)
    elif op is Opcode.SHR:
        r = a >> (u[1] & 0xF)
    elif op is Opcode.LSR:
        r = u[0] >> (u[1] & 0xF)
    elif op is Opcode.AND:
        r = u[0] & u[1]
    elif op is Opcode.OR:
        r = u[0] | u[1]
    elif op is Opcode.XOR:
        r = u[0] ^ u[1]
    elif op is Opcode.NOT:
        r = ~u[0]
    elif op is Opcode.CMP:
        r = (a < b).astype(np.int64)
    elif op is Opcode.SEL:
        r = np.where(u[2] != 0, u[0], u[1])
    elif op is Opcode.MIN:
        r = np.minimum(a, b)
    elif op is Opcode.MAX:
        r = np.maximum(a, b)
    else:
        raise ValueError(f"{op.name} is not a compute op")
    return (np.asarray(r) & _WORD_MASK).astype(np.uint16)


class _Plan:
    """One screened-and-compiled value plan for a fixed iteration count."""

    __slots__ = (
        "total", "end_cycle", "components", "addr", "addr_bounds", "mem",
        "fu_firings", "spm_reads", "spm_writes", "transport", "kvec",
    )


class _Layout:
    """One memory image's SPM allocation (sorted-name order, as
    :meth:`Scratchpad.load_image` allocates)."""

    __slots__ = ("names", "sizes", "base", "signature")

    def __init__(self, names, sizes, base) -> None:
        self.names = names
        self.sizes = sizes
        self.base = base
        self.signature = tuple(zip(names, sizes))


class VectorSchedule:
    """Numpy replay of one :class:`CompiledSchedule`.

    Compile once, execute many windows: the value plan is cached per
    iteration count, so batches and repeated runs pay the SCC/screening
    analysis once.  Any run the fast path cannot prove error-free (or
    any traced run) delegates to the compiled engine — bit-identical by
    the PR 3 invariant.
    """

    def __init__(self, compiled: CompiledSchedule) -> None:
        self.compiled = compiled
        self._plans: dict[tuple, _Plan | None] = {}

    # ------------------------------------------------------------------
    # Entry points (signature-compatible with CompiledSchedule)
    # ------------------------------------------------------------------
    def execute(self, memory: MemoryImage, iterations: int | None = None,
                verify: bool = True, trace=None) -> SimulationReport:
        cs = self.compiled
        total = iteration_window(cs.dfg, iterations)
        if trace is not None or not HAVE_NUMPY:
            return cs.execute(memory, iterations=iterations, verify=verify,
                              trace=trace)
        _numpy()
        plan = self._plan(total)
        layout = self._layout(memory, plan) if plan is not None else None
        if plan is None or layout is None:
            return cs.execute(memory, iterations=iterations, verify=verify)
        return self._run(plan, layout, [memory], verify)[0]

    def execute_batch(self, memories, iterations: int | None = None,
                      verify: bool = True, trace=None
                      ) -> list[SimulationReport]:
        cs = self.compiled
        memories = list(memories)
        if not memories:
            return []
        if trace is not None or not HAVE_NUMPY:
            return cs.execute_batch(memories, iterations=iterations,
                                    verify=verify, trace=trace)
        _numpy()
        total = iteration_window(cs.dfg, iterations)
        plan = self._plan(total)
        if plan is None:
            return cs.execute_batch(memories, iterations=iterations,
                                    verify=verify)
        reports: list[SimulationReport | None] = [None] * len(memories)
        groups: dict[tuple, tuple[_Layout, list[int]]] = {}
        for index, memory in enumerate(memories):
            layout = self._layout(memory, plan)
            if layout is None:
                reports[index] = cs.execute(memory, iterations=iterations,
                                            verify=verify)
            else:
                group = groups.setdefault(layout.signature, (layout, []))
                group[1].append(index)
        for layout, indices in groups.values():
            batch = self._run(plan, layout, [memories[i] for i in indices],
                              verify)
            for index, report in zip(indices, batch):
                reports[index] = report
        return reports

    # ------------------------------------------------------------------
    # Screening + plan compilation (cached per iteration count)
    # ------------------------------------------------------------------
    def _plan(self, total: int) -> _Plan | None:
        key = (total, self.compiled.dfg.trip_counts)
        if key not in self._plans:
            self._plans[key] = self._build_plan(total)
        return self._plans[key]

    def _build_plan(self, total: int) -> _Plan | None:
        """Screen the schedule for any possible error and compile the
        SCC value plan; ``None`` means "delegate to the compiled
        engine"."""
        cs = self.compiled
        ii = cs.ii
        end_cycle = (total - 1) * ii + cs.makespan - 1
        nodes = [cn for phase in cs.fire_phase for cn in phase]
        by_id = {cn.node_id: cn for cn in nodes}
        fire_pos = {}
        for phase_list in cs.fire_phase:
            for pos, cn in enumerate(phase_list):
                fire_pos[cn.node_id] = pos

        if not self._screen(total, end_cycle, nodes, by_id):
            return None

        plan = _Plan()
        plan.total = total
        plan.end_cycle = end_cycle
        plan.kvec = np.arange(total, dtype=np.int64)
        plan.addr = {}
        plan.addr_bounds = {}
        plan.mem = []

        # Iteration-space decode, vectorized over k (innermost varies
        # fastest — the mixed-radix order of DFG.iteration_indices).
        trips = cs.dfg.trip_counts
        idx = []
        weight = 1
        for trip in reversed(trips):
            idx.append((plan.kvec // weight) % trip)
            weight *= trip
        idx.reverse()

        n_loads = n_stores = 0
        for cn in nodes:
            if cn.kind == _EXEC_ALU:
                continue
            access = cn.access
            vec = np.full(total, access.base, dtype=np.int64)
            for dim, coeff in enumerate(access.coeffs):
                vec += coeff * idx[dim]
            plan.addr[cn.node_id] = vec
            plan.addr_bounds[cn.node_id] = (int(vec.min()), int(vec.max()))
            plan.mem.append((cn.node_id, access.array, cn.sigma))
            if cn.kind == _EXEC_LOAD:
                n_loads += 1
            else:
                n_stores += 1

        plan.fu_firings = len(nodes) * total
        plan.spm_reads = n_loads * total
        plan.spm_writes = n_stores * total
        plan.transport = cs.count_occupancies(total, end_cycle)

        components = self._condense(total, nodes, by_id, plan)
        if components is None:
            return None
        plan.components = []
        for comp in components:
            if len(comp) == 1 and not self._has_self_edge(by_id[comp[0]],
                                                          total):
                cn = by_id[comp[0]]
                kind = {_EXEC_LOAD: "load", _EXEC_STORE: "store"}.get(
                    cn.kind, "alu")
                plan.components.append((kind, cn, None))
            else:
                members = frozenset(comp)
                events = sorted(
                    ((m.sigma + k * ii, fire_pos[nid], nid, k)
                     for nid in comp for m in (by_id[nid],)
                     for k in range(total)),
                    key=lambda e: (e[0], e[1]))
                plan.components.append(("seq", events, members))
        return plan

    def _screen(self, total: int, end_cycle: int, nodes, by_id) -> bool:
        """Delegates to the shared :func:`screen_schedule`."""
        return screen_schedule(self.compiled, total, end_cycle, nodes, by_id)

    @staticmethod
    def _has_self_edge(cn, total: int) -> bool:
        return any(spec[0] == cn.node_id and spec[1] < total
                   for spec in cn.specs)

    def _condense(self, total: int, nodes, by_id, plan):
        """SCCs of the data graph + exact address-collision alias edges,
        in topological order (producers first); ``None`` delegates."""
        adj: dict[int, set[int]] = {cn.node_id: set() for cn in nodes}
        for cn in nodes:
            for spec in cn.specs:
                src, distance = spec[0], spec[1]
                if distance >= total or src == cn.node_id:
                    continue
                adj[src].add(cn.node_id)

        # Alias edges: same array, intersecting address sets, >= 1 store
        # — bidirectional, so every colliding cluster lands in one SCC
        # and replays in schedule order.
        by_array: dict[str, list] = {}
        uniq_addr = {}
        for cn in nodes:
            if cn.kind == _EXEC_ALU:
                continue
            by_array.setdefault(cn.access.array, []).append(cn)
            uniq_addr[cn.node_id] = np.unique(plan.addr[cn.node_id])
        for group in by_array.values():
            for i, first in enumerate(group):
                for second in group[i + 1:]:
                    if first.kind != _EXEC_STORE \
                            and second.kind != _EXEC_STORE:
                        continue
                    if np.intersect1d(
                            uniq_addr[first.node_id],
                            uniq_addr[second.node_id],
                            assume_unique=True).size:
                        adj[first.node_id].add(second.node_id)
                        adj[second.node_id].add(first.node_id)

        return _tarjan_topological(adj)

    # ------------------------------------------------------------------
    # Layout (per memory image; mirrors Scratchpad.load_image allocation)
    # ------------------------------------------------------------------
    def _layout(self, memory: MemoryImage, plan: _Plan) -> _Layout | None:
        cs = self.compiled
        names = tuple(memory.names)
        sizes = []
        base = {}
        cursor = 0
        for name in names:
            size = len(memory.array(name))
            base[name] = cursor
            sizes.append(size)
            cursor += size
        words_total = cs.arch.spm_banks * cs.arch.spm_bytes_per_bank // 2
        if cursor > words_total:
            return None                      # SPM exhausted on load
        size_of = dict(zip(names, sizes))
        for node_id, array, _sigma in plan.mem:
            if array not in base:
                return None                  # unallocated array access
            lo, hi = plan.addr_bounds[node_id]
            if lo < 0 or hi >= size_of[array]:
                return None                  # out-of-bounds access
        return _Layout(names, tuple(sizes), base)

    # ------------------------------------------------------------------
    # The fast path: stacked batch execution
    # ------------------------------------------------------------------
    def _run(self, plan: _Plan, layout: _Layout, memories, verify: bool
             ) -> list[SimulationReport]:
        cs = self.compiled
        batch = len(memories)
        total = plan.total
        # Host values mask to 16 bits on load (Scratchpad.load_image's
        # to_unsigned) — int64 first, so negatives don't overflow uint16.
        words = {
            name: (np.array([m.array(name) for m in memories],
                            dtype=np.int64).reshape(batch, -1)
                   & _WORD_MASK).astype(np.uint16)
            for name in layout.names
        }
        out: list = [None] * cs.dfg.num_nodes
        for kind, data, members in plan.components:
            if kind == "alu":
                out[data.node_id] = self._vec_alu(data, out, batch, total)
            elif kind == "load":
                # No colliding store exists (else this node would sit in
                # a cyclic component): the gather sees initial contents.
                out[data.node_id] = \
                    words[data.access.array][:, plan.addr[data.node_id]]
            elif kind == "store":
                out[data.node_id] = self._vec_store(data, out, words,
                                                    batch, total, plan)
            else:
                self._replay(data, members, out, words, batch, plan)

        conflicts = self._bank_conflicts(plan, layout)
        reports = []
        for index, memory in enumerate(memories):
            report = SimulationReport(iterations=total,
                                      cycles=plan.end_cycle + 1)
            report.fu_firings = plan.fu_firings
            report.spm_reads = plan.spm_reads
            report.spm_writes = plan.spm_writes
            report.transport_occupancies = plan.transport
            report.bank_conflicts = conflicts
            final = MemoryImage({name: words[name][index].tolist()
                                 for name in layout.names})
            reports.append(finish_verify(report, cs.dfg, memory.copy(),
                                         final, total, verify))
        return reports

    def _operand_vec(self, cn, spec, out, batch: int, total: int):
        """One operand's whole (batch, total) history: the producer's
        history shifted by the edge distance, init-filled before it."""
        src, distance = spec[0], spec[1]
        if distance == 0:
            return out[src]
        vec = np.empty((batch, total), dtype=np.uint16)
        vec[:, :min(distance, total)] = cn.init_value
        if distance < total:
            vec[:, distance:] = out[src][:, :total - distance]
        return vec

    def _vec_alu(self, cn, out, batch: int, total: int):
        args = []
        for kind, payload in cn.arg_plan:
            if kind == _ARG_OPERAND:
                args.append(self._operand_vec(cn, cn.specs[payload], out,
                                              batch, total))
            elif kind == _ARG_CONST:
                args.append(payload)
            else:                            # _ARG_ONE
                args.append(1)
        result = vec_evaluate(cn.op, args)
        if result.shape != (batch, total):
            result = np.broadcast_to(result, (batch, total))
        return result

    def _vec_store(self, cn, out, words, batch: int, total: int,
                   plan: _Plan):
        if cn.store_pos >= 0:
            vals = self._operand_vec(cn, cn.specs[cn.store_pos], out,
                                     batch, total)
        else:
            vals = np.full((batch, total), cn.const_u, dtype=np.uint16)
        addr = plan.addr[cn.node_id]
        # Last write wins: numpy leaves duplicate-index assignment order
        # unspecified, so keep only each address's final iteration.
        uniq, reversed_first = np.unique(addr[::-1], return_index=True)
        last = total - 1 - reversed_first
        words[cn.access.array][:, uniq] = vals[:, last]
        return vals

    def _replay(self, events, members, out, words, batch: int,
                plan: _Plan) -> None:
        """Cyclic component: replay its firings in exact schedule order.

        Data operands always cross cycles (screened), so committing each
        value immediately is safe; memory effects land in schedule order
        by construction — reproducing the compiled engine even when a
        mapping breaks the DFG's intended memory order."""
        cs = self.compiled
        total = plan.total
        by_id = {cn.node_id: cn
                 for phase in cs.fire_phase for cn in phase}
        if batch == 1:
            self._replay_scalar(events, members, out, words, by_id, plan)
            return
        for nid in members:
            out[nid] = np.empty((batch, total), dtype=np.uint16)
        for _cycle, _pos, nid, k in events:
            cn = by_id[nid]
            vals = []
            for spec in cn.specs:
                producer_iter = k - spec[1]
                if producer_iter < 0:
                    vals.append(cn.init_value)
                else:
                    vals.append(out[spec[0]][:, producer_iter])
            if cn.kind == _EXEC_LOAD:
                value = words[cn.access.array][:, plan.addr[nid][k]]
            elif cn.kind == _EXEC_STORE:
                value = vals[cn.store_pos] if cn.store_pos >= 0 \
                    else cn.const_u
                words[cn.access.array][:, plan.addr[nid][k]] = value
            else:
                args = [vals[payload] if kind == _ARG_OPERAND
                        else (payload if kind == _ARG_CONST else 1)
                        for kind, payload in cn.arg_plan]
                value = vec_evaluate(cn.op, args)
            out[nid][:, k] = value

    def _replay_scalar(self, events, members, out, words, by_id,
                       plan: _Plan) -> None:
        """Single-window replay on Python ints (numpy scalar ops would
        cost more per event than the interpreted engine's dict walk)."""
        total = plan.total
        history = {nid: [0] * total for nid in members}
        rows = {name: arr[0] for name, arr in words.items()}
        for _cycle, _pos, nid, k in events:
            cn = by_id[nid]
            vals = []
            for spec in cn.specs:
                producer_iter = k - spec[1]
                if producer_iter < 0:
                    vals.append(cn.init_value)
                elif spec[0] in members:
                    vals.append(history[spec[0]][producer_iter])
                else:
                    vals.append(int(out[spec[0]][0, producer_iter]))
            if cn.kind == _EXEC_LOAD:
                value = int(rows[cn.access.array][plan.addr[nid][k]])
            elif cn.kind == _EXEC_STORE:
                value = vals[cn.store_pos] if cn.store_pos >= 0 \
                    else cn.const_u
                rows[cn.access.array][plan.addr[nid][k]] = value
            else:
                args = [vals[payload] if kind == _ARG_OPERAND
                        else (payload if kind == _ARG_CONST else 1)
                        for kind, payload in cn.arg_plan]
                value = OP_EVAL[cn.op](*args)
            history[nid][k] = value
        for nid in members:
            out[nid] = np.array(history[nid],
                                dtype=np.uint16).reshape(1, total)

    def _bank_conflicts(self, plan: _Plan, layout: _Layout) -> int:
        """Scratchpad's per-cycle repeat-bank count, analytically: total
        accesses minus distinct (cycle, bank) pairs."""
        if not plan.mem:
            return 0
        cs = self.compiled
        banks = cs.arch.spm_banks
        keys = []
        for node_id, array, sigma in plan.mem:
            cycles = sigma + plan.kvec * cs.ii
            bank = (layout.base[array] + plan.addr[node_id]) % banks
            keys.append(cycles * banks + bank)
        stacked = np.concatenate(keys)
        return int(stacked.size - np.unique(stacked).size)


def _tarjan_topological(adj: dict[int, set[int]]):
    """SCCs of ``adj`` in topological order (producers before consumers),
    via iterative Tarjan (which emits reverse-topologically)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adj[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    components.reverse()
    return components
