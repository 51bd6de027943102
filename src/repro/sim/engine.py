"""Compiled, table-driven simulation engine.

The interpreted simulator re-derived the modulo schedule on every run:
per-cycle ``defaultdict`` buckets for firings and occupancies, per-firing
``in_edges`` copies, edge-index and route dict chains, and a fresh
dict-of-dicts of place contents every cycle.  This module compiles a
:class:`~repro.mapping.base.Mapping` **once** into a steady-state
schedule and executes it with flat-list inner loops:

* **Per-phase firing tables.**  A node placed at cycle ``sigma`` fires at
  every ``sigma + k * II``; all firings of phase ``sigma % II`` share one
  precompiled entry carrying the FU, the operand-resolution plan, and the
  ALU argument plan.  At cycle ``c`` the iteration is recovered as
  ``k = (c - sigma) // II`` — arithmetic, not dict building.
* **Per-phase transport tables.**  Each route occupancy ``(place, rel)``
  lands in the table of phase ``rel % II`` with its iteration offset;
  place contents live in one flat ``(place, net, k) -> value`` dict (no
  per-cycle dict-of-dicts), with per-place counters for the capacity
  check.
* **Prebuilt operand sources.**  Edge -> route resolution and the
  consume-place legality check happen at compile time; the hot loop sees
  a tuple per operand, not a dict-of-dict place lookup.
* **Prologue / steady state / epilogue.**  In the steady window every
  table entry is live, so the inner loops skip the iteration-bounds
  checks entirely; ramp-up and drain cycles take the checked path.
* **Screen once, replay values.**  Whether a window can raise at all
  (a missed delivery, an over-full place, too many SPM accesses in a
  cycle, ...) depends only on the tables, so :func:`screen_schedule`
  decides it once per (schedule, iteration count).  A window that
  passes and runs untraced takes the screened replay: the same firing
  order, operands read straight from the producers' output histories
  with no transport, loads and stores through the same
  :class:`~repro.sim.spm.Scratchpad` (so SPM bounds errors and bank
  conflicts are unchanged), and firing/SPM/occupancy counts derived
  arithmetically.  Every other window, and every traced run, takes the
  checked replay (:meth:`CompiledSchedule.execute_checked`), which
  materializes place contents cycle by cycle and raises exactly where
  the interpreted simulator does.

The engine is the execution core behind both
:class:`~repro.sim.machine.CGRASimulator` (which keeps the interpreted
loop as ``run_reference`` — the conformance oracle) and the spatial
simulator's report accounting.  **Invariant:** compiled execution,
screened or checked, is bit-identical to the interpreted simulator —
same :class:`SimulationReport` counters, same verify results, same
errors on the same malformed mappings — locked by
``tests/test_sim_engine.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ConfigError, SimulationError
from repro.ir.interpreter import DFGInterpreter, MemoryImage, iteration_window
from repro.ir.ops import OP_ARITY, OP_EVAL, Opcode, to_unsigned
from repro.sim.spm import Scratchpad
from repro.sim.trace import TraceRecorder

__all__ = [
    "CompiledSchedule", "SIM_ENGINES", "SimulationReport", "compare_images",
    "compile_mapping", "finish_verify", "resolve_engine", "screen_schedule",
    "set_simulation_engine", "simulation_engine",
]


# ---------------------------------------------------------------------------
# Engine selection (mirrors the REPRO_ROUTING_ENGINE knob of the router)
# ---------------------------------------------------------------------------
#: Temporal execution engines: ``compiled`` (PR 3 table replay), ``numpy``
#: (PR 6 vectorized replay of the same tables), ``native`` (PR 10
#: generated-C replay of the same tables), ``reference`` (the
#: interpreted oracle).
SIM_ENGINES = ("compiled", "numpy", "native", "reference")

SIM_ENGINE_ENV = "REPRO_SIM_ENGINE"

_env_engine = os.environ.get(SIM_ENGINE_ENV, "compiled").strip()
#: The engine in effect when callers pass ``engine=None``; read on every
#: dispatch so tests/benchmarks can flip it mid-process.
ACTIVE_SIM_ENGINE = _env_engine if _env_engine in SIM_ENGINES else "compiled"
#: Deferred $REPRO_SIM_ENGINE validation: a bad value must not explode at
#: import time (``repro engines`` may be diagnosing it), but the first
#: dispatch raises a structured error naming the valid choices instead
#: of silently simulating with the default.
ENV_ERROR = None if _env_engine in SIM_ENGINES else (
    f"invalid {SIM_ENGINE_ENV}={_env_engine!r}: "
    f"valid simulation engines are {', '.join(SIM_ENGINES)}")


def simulation_engine() -> str:
    """The temporal engine in effect (no env validation)."""
    return ACTIVE_SIM_ENGINE


def set_simulation_engine(name: str) -> str:
    """Select the temporal engine; returns the previous setting.

    An explicit runtime selection supersedes (and clears) a pending
    invalid-environment error.
    """
    global ACTIVE_SIM_ENGINE, ENV_ERROR
    if name not in SIM_ENGINES:
        raise ValueError(
            f"unknown simulation engine '{name}' (one of {SIM_ENGINES})")
    previous = ACTIVE_SIM_ENGINE
    ACTIVE_SIM_ENGINE = name
    ENV_ERROR = None
    return previous


def resolve_engine(engine: str | None) -> str:
    """Resolve an explicit engine choice, falling back to the process-wide
    setting (``REPRO_SIM_ENGINE`` / :func:`set_simulation_engine`).

    Raises :class:`~repro.errors.ConfigError` when the fallback is an
    invalid ``$REPRO_SIM_ENGINE`` value — at first use, so a bad
    environment is one structured message, not a deep traceback (or a
    silently wrong engine) mid-sweep.
    """
    if engine is None:
        if ENV_ERROR is not None:
            raise ConfigError(ENV_ERROR)
        return ACTIVE_SIM_ENGINE
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown simulation engine '{engine}' (one of {SIM_ENGINES})")
    return engine


# ---------------------------------------------------------------------------
# The one report type every simulator front end produces
# ---------------------------------------------------------------------------
@dataclass
class SimulationReport:
    """Outcome of one simulation window.

    ``verified`` is tri-state: ``True`` after a successful check against
    the reference interpreter, ``False`` when the check found
    mismatches, and ``None`` when verification was skipped
    (``verify=False``) — a skipped check must never read as "VERIFIED".
    """

    iterations: int
    cycles: int
    fu_firings: int = 0
    spm_reads: int = 0
    spm_writes: int = 0
    transport_occupancies: int = 0
    bank_conflicts: int = 0
    verified: bool | None = None
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.verified is None:
            status = "UNVERIFIED"
        elif self.verified:
            status = "VERIFIED"
        else:
            status = "MISMATCH"
        return (
            f"{status}: {self.iterations} iterations in {self.cycles} "
            f"cycles, {self.fu_firings} firings, "
            f"{self.spm_reads}r/{self.spm_writes}w SPM"
        )


def compare_images(expected: MemoryImage, actual: MemoryImage) -> list[str]:
    """Word-for-word array comparison (first ~10 mismatches reported)."""
    mismatches: list[str] = []
    for name in expected.names:
        want = expected.array(name)
        if name not in actual.names:
            mismatches.append(f"array '{name}' missing from SPM")
            continue
        got = actual.array(name)
        for index, (w, g) in enumerate(zip(want, got)):
            if w != g:
                mismatches.append(
                    f"'{name}'[{index}]: expected {w}, got {g}"
                )
                if len(mismatches) > 10:
                    return mismatches
    return mismatches


def finish_verify(report: SimulationReport, dfg, reference: MemoryImage,
                  final: MemoryImage, total_iters: int,
                  verify: bool) -> SimulationReport:
    """Shared verification tail: run the reference interpreter and set the
    tri-state ``verified`` field (``None`` when the check is skipped)."""
    if verify:
        DFGInterpreter(dfg).run(reference, iterations=total_iters)
        report.mismatches = compare_images(reference, final)
        report.verified = not report.mismatches
    else:
        report.verified = None
    return report


# ---------------------------------------------------------------------------
# Compiled form
# ---------------------------------------------------------------------------
#: Operand-source modes (spec field ``mode``).
_SRC_PLACE = 0          # read (net, k') from a register place
_SRC_BYPASS = 1         # read the producer's output over the bypass path
_SRC_DEFERRED = 2       # malformed route: replay the interpreted lookup

#: ALU argument-plan entry kinds.
_ARG_OPERAND = 0        # payload = position in the operand-spec tuple
_ARG_CONST = 1          # payload = unsigned constant value
_ARG_ONE = 2            # unpredicated SEL predicate
_ARG_MISSING = 3        # payload = slot number; raises at execution

#: Node execution kinds.
_EXEC_ALU = 0
_EXEC_LOAD = 1
_EXEC_STORE = 2


class CompiledNode:
    """One node's firing entry: everything :meth:`CompiledSchedule._fire`
    needs, resolved at compile time."""

    __slots__ = (
        "node_id", "name", "sigma", "fu_id", "op", "kind", "access",
        "specs", "arg_plan", "store_pos", "const_u", "init_value",
    )

    def __init__(self, node_id: int, name: str, sigma: int, fu_id: int,
                 op: Opcode, kind: int, access, specs: tuple,
                 arg_plan: tuple, store_pos: int, const_u: int | None,
                 init_value: int) -> None:
        self.node_id = node_id
        self.name = name
        self.sigma = sigma
        self.fu_id = fu_id
        self.op = op
        self.kind = kind
        self.access = access
        #: Operand specs in ``in_edges`` order (error parity):
        #: (src, distance, mode, final_place, readable, edge_index).
        self.specs = specs
        self.arg_plan = arg_plan
        self.store_pos = store_pos          # spec position feeding slot 0
        self.const_u = const_u
        self.init_value = init_value


class _Replay:
    """One window's screened replay tables (see
    :meth:`CompiledSchedule.screened`).

    ``phases[p]`` holds the firings of phase ``p`` split into 1-, 2- and
    3-operand ALU entries ``(q, node_id, evaluator, args)`` and memory
    entries ``(q, node_id, is_store, array, addresses, value)`` in table
    order, where ``q = sigma // II`` (a firing in row ``r`` is iteration
    ``r - q``) and each operand is ``(producer id, distance, init)`` or
    ``(constant values, 0, 0)``.  Rows ``steady[0]..steady[1]`` have
    every entry live, so they skip the iteration-bounds checks."""

    __slots__ = ("end_cycle", "rows", "steady", "num_ids", "phases",
                 "fu_firings", "spm_reads", "spm_writes")


class CompiledSchedule:
    """A mapping compiled into per-phase firing/transport tables.

    Compile once (:func:`compile_mapping`), execute many windows — the
    tables are independent of the iteration count, so batched
    multi-window runs (:meth:`execute_batch`) pay compilation once.
    """

    def __init__(self, mapping) -> None:
        self.mapping = mapping
        self.dfg = mapping.dfg
        self.arch = mapping.arch
        self.ii = mapping.ii
        self.makespan = mapping.makespan
        ii = self.ii

        dfg = self.dfg
        # Edge index by structural key (edge objects are frozen
        # dataclasses; identity does not survive ``dfg.edges`` copies).
        edge_index = {
            (e.src, e.dst, e.operand_index, e.distance): i
            for i, e in enumerate(dfg.edges)
        }

        # ---- firing tables -------------------------------------------
        #: phase -> CompiledNode list in node-id order (matches the
        #: interpreted simulator's per-cycle execution order).
        self.fire_phase: list[list[CompiledNode]] = [[] for _ in range(ii)]
        sigmas: list[int] = []
        for node in dfg.nodes:
            fu_id, sigma = mapping.placement[node.node_id]
            entry = self._compile_node(node, fu_id, sigma, edge_index)
            self.fire_phase[sigma % ii].append(entry)
            sigmas.append(sigma)

        # ---- transport tables ----------------------------------------
        #: phase -> [(place, net, rel_cycle)] ordered exactly as the
        #: interpreted simulator materializes one absolute cycle: routes
        #: in dict order; within a route, iteration offset ascending
        #: (= rel cycle descending), ties in ``route.places`` order.
        self.occ_phase: list[list[tuple[int, int, int]]] = \
            [[] for _ in range(ii)]
        rels: list[int] = []
        for route in mapping.routes.values():
            by_phase: dict[int, list[tuple[int, int, int]]] = {}
            for place, rel in route.places:
                by_phase.setdefault(rel % ii, []).append(
                    (place, route.net, rel))
                rels.append(rel)
            for phase, entries in by_phase.items():
                entries.sort(key=lambda item: -item[2])      # stable
                self.occ_phase[phase].extend(entries)
        self._occ_rels = rels
        #: (iterations, trip counts) -> screened replay tables, or None
        #: when the screen sends the window to the checked replay.
        self._replays: dict[tuple, _Replay | None] = {}

        # ---- steady-state window (per-iteration-count bounds derive
        # from these at run time) -------------------------------------
        self._max_sigma = max(sigmas) if sigmas else None
        self._min_sigma = min(sigmas) if sigmas else None
        self._max_rel = max(rels) if rels else None
        self._min_rel = min(rels) if rels else None

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def _compile_node(self, node, fu_id: int, sigma: int,
                      edge_index: dict) -> CompiledNode:
        dfg = self.dfg
        arch = self.arch
        mapping = self.mapping
        init_value = to_unsigned(int(node.annotations.get("init", 0)))
        const_u = to_unsigned(node.const) if node.const is not None else None

        specs: list[tuple] = []
        slot_to_pos: dict[int, int] = {}
        for edge in dfg.in_edges(node.node_id):
            if edge.is_ordering:
                continue
            index = edge_index[(edge.src, edge.dst, edge.operand_index,
                                edge.distance)]
            route = mapping.routes.get(index)
            if route is None or (not route.bypass and not route.places):
                # Malformed mapping: replay the interpreted lookup at
                # fire time so the error (KeyError / IndexError) is
                # raised at the same point with the same payload.
                spec = (edge.src, edge.distance, _SRC_DEFERRED, -1,
                        False, index)
            elif route.bypass:
                spec = (edge.src, edge.distance, _SRC_BYPASS, -1,
                        True, index)
            else:
                final_place = route.places[-1][0]
                readable = final_place in arch.consume_places[fu_id]
                spec = (edge.src, edge.distance, _SRC_PLACE, final_place,
                        readable, index)
            slot_to_pos[edge.operand_index] = len(specs)
            specs.append(spec)

        if node.op is Opcode.LOAD:
            kind = _EXEC_LOAD
            arg_plan: tuple = ()
            store_pos = -1
        elif node.op is Opcode.STORE:
            kind = _EXEC_STORE
            arg_plan = ()
            store_pos = slot_to_pos.get(0, -1)
        else:
            kind = _EXEC_ALU
            store_pos = -1
            plan: list[tuple[int, int]] = []
            const_used = False
            for slot in range(OP_ARITY[node.op]):
                if slot in slot_to_pos:
                    plan.append((_ARG_OPERAND, slot_to_pos[slot]))
                elif const_u is not None and not const_used:
                    plan.append((_ARG_CONST, const_u))
                    const_used = True
                elif node.op is Opcode.SEL and slot == 2:
                    plan.append((_ARG_ONE, 0))
                else:
                    plan.append((_ARG_MISSING, slot))
            arg_plan = tuple(plan)

        return CompiledNode(node.node_id, node.name, sigma, fu_id, node.op,
                            kind, node.access, tuple(specs), arg_plan,
                            store_pos, const_u, init_value)

    # ------------------------------------------------------------------
    # Derived counts
    # ------------------------------------------------------------------
    def count_occupancies(self, total_iters: int, end_cycle: int) -> int:
        """Committed transport occupancies over the window — the number
        of (route place entry, iteration) pairs landing at or before
        ``end_cycle`` — computed arithmetically instead of by unrolling
        every iteration."""
        ii = self.ii
        total = 0
        for rel in self._occ_rels:
            if rel > end_cycle:
                continue
            total += min(total_iters - 1, (end_cycle - rel) // ii) + 1
        return total

    def _steady_window(self, total_iters: int,
                       end_cycle: int) -> tuple[int, int]:
        """Cycle range in which every firing and occupancy entry is live
        (no iteration-bounds checks needed)."""
        span = (total_iters - 1) * self.ii
        lo = 0
        hi = end_cycle
        if self._max_sigma is not None:
            lo = max(lo, self._max_sigma)
            hi = min(hi, self._min_sigma + span)
        if self._max_rel is not None:
            # Transport for cycle c materializes occupancies of c + 1.
            lo = max(lo, self._max_rel - 1)
            hi = min(hi, self._min_rel + span - 1, end_cycle - 1)
        return lo, hi

    # ------------------------------------------------------------------
    # Screened replay (built once per iteration count)
    # ------------------------------------------------------------------
    def screened(self, total: int) -> _Replay | None:
        """The screened replay tables for a ``total``-iteration window,
        or ``None`` when :func:`screen_schedule` cannot rule out every
        error (the window then runs :meth:`execute_checked`)."""
        key = (total, self.dfg.trip_counts)
        if key not in self._replays:
            self._replays[key] = self._build_replay(total)
        return self._replays[key]

    def _build_replay(self, total: int) -> _Replay | None:
        ii = self.ii
        end_cycle = (total - 1) * ii + self.makespan - 1
        nodes = [cn for phase in self.fire_phase for cn in phase]
        by_id = {cn.node_id: cn for cn in nodes}
        if not nodes or not screen_schedule(self, total, end_cycle, nodes,
                                            by_id):
            return None
        trips = self.dfg.trip_counts
        constants: dict[int, list[int]] = {}

        def source(cn: CompiledNode, pos: int) -> tuple:
            """(producer id, distance, init), or (values, 0, 0) for a
            constant or an operand only ever read before iteration 0."""
            src, distance = cn.specs[pos][0], cn.specs[pos][1]
            if distance >= total:
                return constant(cn.init_value)
            return (src, distance, cn.init_value)

        def constant(value: int) -> tuple:
            if value not in constants:
                constants[value] = [value] * total
            return (constants[value], 0, 0)

        replay = _Replay()
        replay.end_cycle = end_cycle
        replay.rows = end_cycle // ii + 1
        quotients = [cn.sigma // ii for cn in nodes]
        replay.steady = (max(quotients), min(quotients) + total - 1)
        replay.num_ids = max(by_id) + 1
        replay.phases = []
        loads = stores = 0
        for phase in self.fire_phase:
            alu: tuple[list, list, list] = ([], [], [])
            mem = []
            for cn in phase:
                q = cn.sigma // ii
                if cn.kind == _EXEC_ALU:
                    args = []
                    for arg_kind, payload in cn.arg_plan:
                        if arg_kind == _ARG_OPERAND:
                            args.append(source(cn, payload))
                        else:                   # _ARG_CONST / _ARG_ONE
                            args.append(constant(
                                payload if arg_kind == _ARG_CONST else 1))
                    alu[len(args) - 1].append(
                        (q, cn.node_id, OP_EVAL[cn.op], args))
                    continue
                addrs = cn.access.addresses(trips, total)
                if cn.kind == _EXEC_LOAD:
                    loads += 1
                    value = None
                else:
                    stores += 1
                    value = source(cn, cn.store_pos) if cn.store_pos >= 0 \
                        else constant(cn.const_u)
                mem.append((q, cn.node_id, cn.kind == _EXEC_STORE,
                            cn.access.array, addrs, value))
            replay.phases.append((*alu, mem))
        replay.fu_firings = len(nodes) * total
        replay.spm_reads = loads * total
        replay.spm_writes = stores * total
        return replay

    @staticmethod
    def _run_screened(replay: _Replay, spm: Scratchpad,
                      total: int) -> None:
        """Run the firing tables in (cycle, firing position) order with
        no transport: the screen proved every operand is delivered on
        time, so each read is the producer's output for iteration
        ``k - distance``.  Every producer fires in an earlier cycle, so
        within a cycle the ALU firings (side-effect free) run first and
        the loads/stores follow in their table order — the SPM sees the
        same access sequence as the checked replay."""
        hist = [[0] * total for _ in range(replay.num_ids)]

        def bind(value) -> tuple:
            src, distance, init = value
            return (hist[src] if isinstance(src, int) else src,
                    distance, init)

        phases = []
        for alu1, alu2, alu3, mem in replay.phases:
            phases.append((
                [(q, hist[nid], fn, *bind(a)) for q, nid, fn, (a,) in alu1],
                [(q, hist[nid], fn, *bind(a), *bind(b))
                 for q, nid, fn, (a, b) in alu2],
                [(q, hist[nid], fn, *bind(a), *bind(b), *bind(c))
                 for q, nid, fn, (a, b, c) in alu3],
                [(q, hist[nid], store, array, addrs,
                  *(bind(value) if store else (None, 0, 0)))
                 for q, nid, store, array, addrs, value in mem],
            ))
        begin, read, write = spm.begin_cycle, spm.read, spm.write
        steady_lo, steady_hi = replay.steady
        for r in range(replay.rows):
            checked = r < steady_lo or r > steady_hi
            for alu1, alu2, alu3, mem in phases:
                for q, out, fn, h0, d0, i0, h1, d1, i1 in alu2:
                    k = r - q
                    if checked and not 0 <= k < total:
                        continue
                    out[k] = fn(h0[k - d0] if k >= d0 else i0,
                                h1[k - d1] if k >= d1 else i1)
                for q, out, fn, h0, d0, i0 in alu1:
                    k = r - q
                    if checked and not 0 <= k < total:
                        continue
                    out[k] = fn(h0[k - d0] if k >= d0 else i0)
                for q, out, fn, h0, d0, i0, h1, d1, i1, h2, d2, i2 in alu3:
                    k = r - q
                    if checked and not 0 <= k < total:
                        continue
                    out[k] = fn(h0[k - d0] if k >= d0 else i0,
                                h1[k - d1] if k >= d1 else i1,
                                h2[k - d2] if k >= d2 else i2)
                if not mem:
                    continue
                begin()
                for q, out, store, array, addrs, h0, d0, i0 in mem:
                    k = r - q
                    if checked and not 0 <= k < total:
                        continue
                    if store:
                        value = h0[k - d0] if k >= d0 else i0
                        write(array, addrs[k], value)
                        out[k] = value
                    else:
                        out[k] = read(array, addrs[k])

    def _scratchpad(self, memory: MemoryImage) -> Scratchpad:
        spm = Scratchpad(self.arch.spm_banks, self.arch.spm_bytes_per_bank)
        spm.load_image(memory)
        return spm

    def _report(self, total: int, end_cycle: int) -> SimulationReport:
        report = SimulationReport(iterations=total, cycles=end_cycle + 1)
        report.transport_occupancies = self.count_occupancies(total,
                                                              end_cycle)
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, memory: MemoryImage, iterations: int | None = None,
                verify: bool = True,
                trace: TraceRecorder | None = None) -> SimulationReport:
        """Simulate ``iterations`` pipelined iterations starting from
        ``memory`` (left untouched; the SPM gets a copy).

        An untraced window that passes :func:`screen_schedule` runs the
        screened replay; any other window runs :meth:`execute_checked`.
        Both produce the same report, final memory and errors."""
        total = iteration_window(self.dfg, iterations)
        replay = self.screened(total) if trace is None else None
        if replay is None:
            return self.execute_checked(memory, total, verify, trace)
        reference = memory.copy()
        spm = self._scratchpad(memory)
        report = self._report(total, replay.end_cycle)
        report.fu_firings = replay.fu_firings
        report.spm_reads = replay.spm_reads
        report.spm_writes = replay.spm_writes
        self._run_screened(replay, spm, total)
        report.bank_conflicts = spm.bank_conflicts
        return finish_verify(report, self.dfg, reference, spm.dump_image(),
                             total, verify)

    def execute_checked(self, memory: MemoryImage,
                        iterations: int | None = None, verify: bool = True,
                        trace: TraceRecorder | None = None
                        ) -> SimulationReport:
        """The checked replay: every operand read goes through the place
        contents and every occupancy is materialized and capacity-checked
        cycle by cycle, so malformed mappings raise exactly where
        :meth:`~repro.sim.machine.CGRASimulator.run_reference` does.
        Runs every window the screen rejects and every traced run."""
        dfg = self.dfg
        ii = self.ii
        total = iteration_window(dfg, iterations)

        reference = memory.copy()
        spm = self._scratchpad(memory)
        end_cycle = (total - 1) * ii + self.makespan - 1
        report = self._report(total, end_cycle)

        num_nodes = dfg.num_nodes
        out_buf: list[int | None] = [None] * (total * num_nodes)
        indices_of = [dfg.iteration_indices(k) for k in range(total)]

        cur: dict[tuple[int, int, int], int] = {}
        nxt: dict[tuple[int, int, int], int] = {}
        counts = [0] * len(self.arch.places)
        caps: dict[int, int] = {}
        touched: list[int] = []
        fire_phase = self.fire_phase
        occ_phase = self.occ_phase
        fire = self._fire
        record = trace.record if trace is not None else None

        def span(start: int, stop: int, checked: bool) -> None:
            nonlocal cur, nxt
            for cycle in range(start, stop):
                spm.begin_cycle()
                # 1. Execute firings against the *current* place contents.
                fired = []
                for cn in fire_phase[cycle % ii]:
                    k = (cycle - cn.sigma) // ii
                    if checked and (k < 0 or k >= total):
                        continue
                    value = fire(cn, k, cycle, cur, out_buf, num_nodes,
                                 spm, report, indices_of[k])
                    fired.append((cn, k, value))
                for cn, k, value in fired:
                    out_buf[k * num_nodes + cn.node_id] = value
                    if record is not None:
                        record(cycle, "exec", node=cn.node_id, iteration=k,
                               fu=cn.fu_id, value=value)
                # 2. Advance transport: place contents for the NEXT cycle.
                arrive = cycle + 1
                for place in touched:
                    counts[place] = 0
                touched.clear()
                nxt.clear()
                if not checked or arrive <= end_cycle:
                    for place, net, rel in occ_phase[arrive % ii]:
                        k = (arrive - rel) // ii
                        if checked and (k < 0 or k >= total):
                            continue
                        value = out_buf[k * num_nodes + net]
                        if value is None:
                            raise SimulationError(
                                f"cycle {arrive}: occupancy of ({net},{k}) "
                                f"at place {place} before production"
                            )
                        before = len(nxt)
                        nxt[(place, net, k)] = value
                        if len(nxt) != before:
                            if counts[place] == 0:
                                touched.append(place)
                            counts[place] += 1
                    for place in touched:
                        capacity = caps.get(place)
                        if capacity is None:
                            capacity = self.arch.place(place).capacity
                            caps[place] = capacity
                        if counts[place] > capacity:
                            raise SimulationError(
                                f"cycle {arrive}: place "
                                f"{self.arch.place(place).name} holds "
                                f"{counts[place]} values, capacity "
                                f"{capacity}"
                            )
                cur, nxt = nxt, cur

        steady_lo, steady_hi = self._steady_window(total, end_cycle)
        if steady_lo > steady_hi:
            span(0, end_cycle + 1, True)
        else:
            span(0, steady_lo, True)                     # prologue
            span(steady_lo, steady_hi + 1, False)        # steady state
            span(steady_hi + 1, end_cycle + 1, True)     # epilogue

        report.bank_conflicts = spm.bank_conflicts
        final = spm.dump_image()
        return finish_verify(report, dfg, reference, final, total, verify)

    def execute_batch(self, memories, iterations: int | None = None,
                      verify: bool = True, trace=None
                      ) -> list[SimulationReport]:
        """Run one compiled schedule over many memory windows (compile
        paid once; long-iteration workloads batch their windows here).

        ``trace`` is either one shared :class:`TraceRecorder` or a
        sequence of per-window recorders (``None`` entries skip a
        window).  A shared recorder accumulates across windows — cycle
        numbers restart per window, and a ``limit`` counts events over
        the *whole batch*, so a limited shared recorder fills on the
        first window; pass per-window recorders (what ``repro simulate
        --trace`` documents) to trace every window independently."""
        memories = list(memories)
        traces = self._window_traces(trace, memories)
        return [self.execute(memory, iterations=iterations, verify=verify,
                             trace=window_trace)
                for memory, window_trace in zip(memories, traces)]

    @staticmethod
    def _window_traces(trace, memories) -> list[TraceRecorder | None]:
        """Normalize a batch ``trace`` argument to one recorder (or
        ``None``) per window."""
        if trace is None or isinstance(trace, TraceRecorder):
            return [trace] * len(memories)
        traces = list(trace)
        if len(traces) != len(memories):
            raise SimulationError(
                f"per-window trace list has {len(traces)} recorders for "
                f"{len(memories)} memory windows"
            )
        return traces

    # ------------------------------------------------------------------
    def _fire(self, cn: CompiledNode, k: int, cycle: int, cur, out_buf,
              num_nodes: int, spm: Scratchpad,
              report: SimulationReport, indices) -> int:
        vals: list[int] = []
        for src, distance, mode, final_place, readable, index in cn.specs:
            pk = k - distance
            if pk < 0:
                vals.append(cn.init_value)
                continue
            if mode == _SRC_BYPASS:
                value = out_buf[pk * num_nodes + src]
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: bypass operand ({src}, {pk}) "
                        f"missing for '{cn.name}'"
                    )
            elif mode == _SRC_PLACE:
                if not readable:
                    raise SimulationError(
                        f"cycle {cycle}: '{cn.name}' on "
                        f"{self.arch.fu(cn.fu_id).name} cannot read place "
                        f"{self.arch.place(final_place).name}"
                    )
                value = cur.get((final_place, src, pk))
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: '{cn.name}' expected value "
                        f"({src}, {pk}) in place "
                        f"{self.arch.place(final_place).name}, not there"
                    )
            else:
                # Malformed route: replay the interpreted resolution so
                # the raised error is identical (KeyError on a missing
                # route, IndexError on an empty place list).
                route = self.mapping.routes[index]
                route.places[-1]
                raise SimulationError(           # pragma: no cover
                    f"route for edge {index} changed after compilation"
                )
            vals.append(value)

        report.fu_firings += 1
        if cn.kind == _EXEC_LOAD:
            report.spm_reads += 1
            return spm.read(cn.access.array, cn.access.address(indices))
        if cn.kind == _EXEC_STORE:
            report.spm_writes += 1
            if cn.store_pos >= 0:
                value = vals[cn.store_pos]
            elif cn.const_u is not None:
                value = cn.const_u
            else:
                raise SimulationError(
                    f"store '{cn.name}' without a value")
            spm.write(cn.access.array, cn.access.address(indices), value)
            return value
        args: list[int] = []
        for arg_kind, payload in cn.arg_plan:
            if arg_kind == _ARG_OPERAND:
                args.append(vals[payload])
            elif arg_kind == _ARG_CONST:
                args.append(payload)
            elif arg_kind == _ARG_ONE:
                args.append(1)
            else:
                raise SimulationError(
                    f"'{cn.name}' missing operand {payload} at execution"
                )
        return OP_EVAL[cn.op](*args)


def screen_schedule(cs: CompiledSchedule, total: int, end_cycle: int,
                    nodes, by_id) -> bool:
    """True iff no error can possibly fire in this window.

    All the checked replay's checks (bypass-before-production,
    unreadable/missing place deliveries, occupancy-before-production,
    place capacity, SPM ports, missing operands) are data-independent,
    so they are decidable from the tables alone, once per (schedule,
    iteration count).  The screened replay of
    :meth:`CompiledSchedule.execute` and the numpy and native backends
    gate on this screen; a window that fails it runs the checked replay,
    which raises the identical error at the identical point.  SPM
    bounds depend on the memory layout and stay with the
    :class:`~repro.sim.spm.Scratchpad` every path goes through.
    """
    ii = cs.ii
    trips = cs.dfg.trip_counts
    for cn in nodes:
        if cn.sigma < 0 or cn.sigma > cs.makespan - 1:
            return False                 # node would fire < total times
        if cn.kind != _EXEC_ALU and cn.access is None:
            return False                 # malformed memory node
        if cn.kind == _EXEC_STORE and cn.store_pos < 0 \
                and cn.const_u is None:
            return False                 # store without a value
        if cn.kind == _EXEC_ALU and any(
                kind == _ARG_MISSING for kind, _ in cn.arg_plan):
            return False                 # missing operand at execution
        if cn.access is not None and len(cn.access.coeffs) > len(trips):
            return False                 # address needs absent indices
        for src, distance, mode, final_place, readable, index \
                in cn.specs:
            if distance >= total:
                continue                 # never read: init value only
            producer = by_id.get(src)
            if producer is None:
                return False
            if mode == _SRC_BYPASS:
                # Same-or-later-cycle production: bypass read misses.
                if producer.sigma >= cn.sigma + distance * ii:
                    return False
            elif mode == _SRC_PLACE:
                if not readable:
                    return False
                # The delivery must land exactly at every consuming
                # cycle: the route must carry the producer's net and
                # hold (final_place, rel) with rel == sigma_dst + d*II,
                # and rel >= 1 (transport starts delivering at cycle 1).
                need_rel = cn.sigma + distance * ii
                route = cs.mapping.routes.get(index)
                if route is None or route.net != src or need_rel < 1 \
                        or (final_place, need_rel) not in route.places:
                    return False
            else:
                return False             # deferred = malformed route

    # Transport: every occupancy must follow its net's production.
    for route in cs.mapping.routes.values():
        producer = by_id.get(route.net)
        if producer is None:
            return False
        for _place, rel in route.places:
            if producer.sigma >= rel:
                return False

    # Place capacity at steady state (ramp-up counts are subsets).
    for phase_entries in cs.occ_phase:
        per_place: dict[int, int] = {}
        seen = set()
        for entry in phase_entries:
            if entry in seen:
                continue                 # same (place, net, rel) dedups
            seen.add(entry)
            per_place[entry[0]] = per_place.get(entry[0], 0) + 1
        for place, count in per_place.items():
            if count > cs.arch.place(place).capacity:
                return False

    # SPM aggregate port limit per cycle (= per phase, steady state).
    banks = cs.arch.spm_banks
    for phase_list in cs.fire_phase:
        if sum(1 for cn in phase_list if cn.kind != _EXEC_ALU) > banks:
            return False
    return True


def compile_mapping(mapping) -> CompiledSchedule:
    """Compile a mapping into its steady-state schedule (once per
    mapping; :class:`~repro.sim.machine.CGRASimulator` caches this)."""
    return CompiledSchedule(mapping)
