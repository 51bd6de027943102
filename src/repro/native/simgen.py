"""C codegen for per-mapping compiled simulation schedules.

One module is generated per :class:`~repro.sim.engine.CompiledSchedule`
structure: the per-phase firing tables are unrolled into straight-line C
(one block per node inside a ``switch`` on ``cycle % II``), with operand
distances, init values, constants, and the 16-bit ALU semantics of
:func:`repro.ir.ops.evaluate` baked in.  The module is independent of
the iteration count and the memory image — per-iteration SPM addresses
are precomputed in Python (handling partial iteration windows exactly
like ``dfg.iteration_indices``) and passed in, so the same artifact
serves every window of a batch.

The backend reuses the compiled engine's screen-and-delegate discipline
(:func:`repro.sim.engine.screen_schedule`): C only ever executes windows
proven error-free, where

* every operand is the producer's out-buffer value for iteration
  ``k - distance`` (or the init value), because deliveries were screened
  to land exactly on time — so place/bypass reads reduce to one indexed
  load;
* within a cycle, out-buffer values never flow between firings
  (producers fire in strictly earlier cycles), but SPM effects are
  immediate — the C body executes firings in exact compiled order with
  immediate ``data[]`` reads/writes, reproducing the engine's memory
  semantics bit for bit;
* counters are analytic (every entry fires once per iteration), except
  bank conflicts, which C counts with a per-cycle bank bitmask exactly
  like :meth:`Scratchpad._access`.

Anything else — trace runs, screen failures, layout problems, missing
toolchain — delegates to the compiled engine, which is bit-identical by
the PR 3 invariant and raises the identical errors.
"""

from __future__ import annotations

import ctypes
import hashlib

from repro.ir.interpreter import MemoryImage, iteration_window
from repro.ir.ops import Opcode
from repro.native import build
from repro.sim.engine import (
    _ARG_CONST, _ARG_ONE, _ARG_OPERAND, _EXEC_ALU, _EXEC_LOAD, _EXEC_STORE,
    CompiledSchedule, SimulationReport, finish_verify, screen_schedule,
)

__all__ = ["NativeSchedule", "sim_source"]

_INT64_MAX = 2 ** 63 - 1
_ADDR_LIMIT = 2 ** 53        # far beyond any SPM; guards int overflow


_PRELUDE = r"""
/* Generated by repro.native.simgen (schema v%(schema)d). Do not edit. */
#include <stdint.h>

#define NUM_NODES %(num_nodes)d
#define II %(ii)d
#define BANKS %(banks)d

#define SGN(v) ((int32_t)(int16_t)(uint16_t)(v))

static inline uint16_t asr16_(uint16_t a, int sh) {
    int32_t sa = SGN(a);
    return (uint16_t)(sa < 0 ? ~((~sa) >> sh) : (sa >> sh));
}

int64_t sim_run(uint16_t *data, const int64_t *mem_base,
                const int64_t *addr_rel, int64_t total,
                int64_t end_cycle, uint16_t *out)
{
    int64_t conflicts = 0;
    for (int64_t cycle = 0; cycle <= end_cycle; cycle++) {
        uint32_t bankmask = 0;
        (void)bankmask;
        switch (cycle %% II) {
%(cases)s
        }
    }
    return conflicts;
}
"""


def _alu_expr(op: Opcode, a: list[str]) -> str:
    """C expression with the exact 16-bit semantics of ops.evaluate."""
    if op is Opcode.ADD:
        return f"(uint16_t)(SGN({a[0]}) + SGN({a[1]}))"
    if op is Opcode.SUB:
        return f"(uint16_t)(SGN({a[0]}) - SGN({a[1]}))"
    if op is Opcode.MUL:
        return f"(uint16_t)(SGN({a[0]}) * SGN({a[1]}))"
    if op is Opcode.ABS:
        return f"(uint16_t)(SGN({a[0]}) < 0 ? -SGN({a[0]}) : SGN({a[0]}))"
    if op is Opcode.SHL:
        return f"(uint16_t)((uint32_t)SGN({a[0]}) << (({a[1]}) & 0xF))"
    if op is Opcode.SHR:
        return f"asr16_({a[0]}, ({a[1]}) & 0xF)"
    if op is Opcode.LSR:
        return f"(uint16_t)(({a[0]}) >> (({a[1]}) & 0xF))"
    if op is Opcode.AND:
        return f"(uint16_t)(({a[0]}) & ({a[1]}))"
    if op is Opcode.OR:
        return f"(uint16_t)(({a[0]}) | ({a[1]}))"
    if op is Opcode.XOR:
        return f"(uint16_t)(({a[0]}) ^ ({a[1]}))"
    if op is Opcode.NOT:
        return f"(uint16_t)(~({a[0]}))"
    if op is Opcode.CMP:
        return f"(uint16_t)(SGN({a[0]}) < SGN({a[1]}) ? 1 : 0)"
    if op is Opcode.SEL:
        return f"(uint16_t)((({a[2]}) != 0) ? ({a[0]}) : ({a[1]}))"
    if op is Opcode.MIN:
        return f"(uint16_t)(SGN({a[0]}) <= SGN({a[1]}) ? ({a[0]}) : ({a[1]}))"
    if op is Opcode.MAX:
        return f"(uint16_t)(SGN({a[0]}) >= SGN({a[1]}) ? ({a[0]}) : ({a[1]}))"
    raise ValueError(f"{op.name} is not a compute op")   # pragma: no cover


def _emit_operand(lines: list[str], cn, pos: int, done: set[int]) -> str:
    """Emit (once) the fetch of operand ``pos``; returns its C variable."""
    var = f"v{pos}"
    if pos in done:
        return var
    done.add(pos)
    src, distance = cn.specs[pos][0], cn.specs[pos][1]
    if distance == 0:
        lines.append(f"    uint16_t {var} = out[k * NUM_NODES + {src}];")
    else:
        lines.append(f"    uint16_t {var};")
        lines.append(f"    {{ int64_t pk = k - {distance}; "
                     f"{var} = (pk < 0) ? {cn.init_value}u "
                     f": out[pk * NUM_NODES + {src}]; }}")
    return var


def _emit_bank_charge(lines: list[str]) -> None:
    lines.append("    { uint32_t bit = 1u << (uint32_t)(addr % BANKS);")
    lines.append("      if (bankmask & bit) conflicts++; "
                 "else bankmask |= bit; }")


def _emit_node(cn, mem_index: int | None) -> list[str]:
    """The firing block of one compiled node (inside its phase case)."""
    lines = [
        f"  {{ /* node {cn.node_id}: {cn.name} */",
        f"  int64_t d = cycle - {cn.sigma};",
        "  if (d >= 0) {",
        f"  int64_t k = d / II;",
        "  if (k < total) {",
    ]
    done: set[int] = set()
    if cn.kind == _EXEC_LOAD:
        lines.append(f"    int64_t addr = mem_base[{mem_index}] + "
                     f"addr_rel[{mem_index} * total + k];")
        _emit_bank_charge(lines)
        lines.append("    uint16_t val = data[addr];")
    elif cn.kind == _EXEC_STORE:
        if cn.store_pos >= 0:
            var = _emit_operand(lines, cn, cn.store_pos, done)
        else:
            var = f"{cn.const_u}u"           # screened: const exists
        lines.append(f"    int64_t addr = mem_base[{mem_index}] + "
                     f"addr_rel[{mem_index} * total + k];")
        _emit_bank_charge(lines)
        lines.append(f"    uint16_t val = {var};")
        lines.append("    data[addr] = val;")
    else:
        args: list[str] = []
        for kind, payload in cn.arg_plan:
            if kind == _ARG_OPERAND:
                args.append(_emit_operand(lines, cn, payload, done))
            elif kind == _ARG_CONST:
                args.append(f"{payload}u")
            else:                            # _ARG_ONE (screened: no MISSING)
                assert kind == _ARG_ONE
                args.append("1u")
        lines.append(f"    uint16_t val = {_alu_expr(cn.op, args)};")
    lines.append(f"    out[k * NUM_NODES + {cn.node_id}] = val;")
    lines.extend(["  } } }"])
    return lines


def sim_source(cs: CompiledSchedule) -> tuple[str, list]:
    """Generated C for ``cs`` plus its memory nodes in emission order.

    The memory-node order defines the ``mem_base``/``addr_rel`` row
    index each emitted block uses — the caller must build those arrays
    in exactly this order.
    """
    mem_nodes: list = []
    cases: list[str] = []
    for phase, phase_nodes in enumerate(cs.fire_phase):
        cases.append(f"        case {phase}:")
        for cn in phase_nodes:
            mem_index = None
            if cn.kind != _EXEC_ALU:
                mem_index = len(mem_nodes)
                mem_nodes.append(cn)
            block = _emit_node(cn, mem_index)
            cases.extend("        " + line for line in block)
        cases.append("          break;")
    source = _PRELUDE % {
        "schema": build.NATIVE_SCHEMA_VERSION,
        "num_nodes": cs.dfg.num_nodes,
        "ii": cs.ii,
        "banks": cs.arch.spm_banks,
        "cases": "\n".join(cases),
    }
    return source, mem_nodes


class _Program:
    """Per-iteration-count call tables for one native schedule."""

    __slots__ = ("total", "end_cycle", "addr_rel", "mem_base_template",
                 "addr_bounds", "n_mem", "fu_firings", "spm_reads",
                 "spm_writes", "transport")


class _Layout:
    """One memory image's SPM allocation (insertion order, as
    :meth:`Scratchpad.load_image` allocates)."""

    __slots__ = ("names", "sizes", "base", "words_total")


class NativeSchedule:
    """Generated-C replay of one :class:`CompiledSchedule`.

    Signature-compatible with :class:`CompiledSchedule` /
    :class:`~repro.sim.vector.VectorSchedule`; every window the C module
    cannot take bit-identically is delegated to the compiled engine.
    """

    def __init__(self, compiled: CompiledSchedule) -> None:
        self.compiled = compiled
        self._fn = None
        self._fn_generation = -1
        self._mem_nodes: list = []
        self._programs: dict[tuple, _Program | None] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, memory: MemoryImage, iterations: int | None = None,
                verify: bool = True, trace=None) -> SimulationReport:
        cs = self.compiled
        total = iteration_window(cs.dfg, iterations)
        if trace is not None:
            return cs.execute(memory, iterations=iterations, verify=verify,
                              trace=trace)
        program = self._program(total)
        layout = self._layout(memory) if program is not None else None
        if program is None or layout is None:
            return cs.execute(memory, iterations=iterations, verify=verify)
        if not self._addresses_fit(program, layout):
            return cs.execute(memory, iterations=iterations, verify=verify)
        return self._run(program, layout, memory, verify)

    def execute_batch(self, memories, iterations: int | None = None,
                      verify: bool = True, trace=None
                      ) -> list[SimulationReport]:
        memories = list(memories)
        if trace is not None:
            return self.compiled.execute_batch(
                memories, iterations=iterations, verify=verify, trace=trace)
        return [self.execute(memory, iterations=iterations, verify=verify)
                for memory in memories]

    # ------------------------------------------------------------------
    # Compilation (module once; per-total address tables cached)
    # ------------------------------------------------------------------
    def _function(self):
        """The loaded ``sim_run`` entry point, or ``None``."""
        if self._fn_generation == build.generation():
            return self._fn
        source, mem_nodes = sim_source(self.compiled)
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        lib = build.ensure_module("sim", digest, source)
        fn = None
        if lib is not None:
            fn = lib.sim_run
            fn.restype = ctypes.c_int64
            fn.argtypes = [
                ctypes.POINTER(ctypes.c_uint16),
                ctypes.POINTER(ctypes.c_int64),
                ctypes.POINTER(ctypes.c_int64),
                ctypes.c_int64, ctypes.c_int64,
                ctypes.POINTER(ctypes.c_uint16),
            ]
        self._fn = fn
        self._mem_nodes = mem_nodes
        self._fn_generation = build.generation()
        self._programs.clear()
        return fn

    def _program(self, total: int) -> _Program | None:
        if self._function() is None:
            return None
        key = (total, self.compiled.dfg.trip_counts)
        if key not in self._programs:
            self._programs[key] = self._build_program(total)
        return self._programs[key]

    def _build_program(self, total: int) -> _Program | None:
        cs = self.compiled
        ii = cs.ii
        end_cycle = (total - 1) * ii + cs.makespan - 1
        nodes = [cn for phase in cs.fire_phase for cn in phase]
        if not nodes or cs.arch.spm_banks < 1 or cs.arch.spm_banks > 32:
            return None
        by_id = {cn.node_id: cn for cn in nodes}
        if not screen_schedule(cs, total, end_cycle, nodes, by_id):
            return None

        # Per-(memory node, iteration) addresses, the ones the compiled
        # engine computes (partial windows included); the C side only
        # adds the array base.
        trips = cs.dfg.trip_counts
        program = _Program()
        program.total = total
        program.end_cycle = end_cycle
        program.n_mem = len(self._mem_nodes)
        program.addr_bounds = {}
        flat: list[int] = []
        n_loads = n_stores = 0
        for cn in self._mem_nodes:
            addrs = cn.access.addresses(trips, total)
            lo, hi = min(addrs), max(addrs)
            if lo < -_ADDR_LIMIT or hi > _ADDR_LIMIT:
                return None
            program.addr_bounds[cn.node_id] = (lo, hi)
            flat.extend(addrs)
            if cn.kind == _EXEC_LOAD:
                n_loads += 1
            else:
                n_stores += 1
        size = max(1, len(flat))
        program.addr_rel = (ctypes.c_int64 * size)(*flat)
        program.fu_firings = len(nodes) * total
        program.spm_reads = n_loads * total
        program.spm_writes = n_stores * total
        program.transport = cs.count_occupancies(total, end_cycle)
        return program

    # ------------------------------------------------------------------
    # Per-memory layout (mirrors Scratchpad.load_image allocation)
    # ------------------------------------------------------------------
    def _layout(self, memory: MemoryImage) -> _Layout | None:
        cs = self.compiled
        layout = _Layout()
        layout.names = tuple(memory.names)
        sizes = []
        base = {}
        cursor = 0
        for name in layout.names:
            size = len(memory.array(name))
            base[name] = cursor
            sizes.append(size)
            cursor += size
        layout.sizes = tuple(sizes)
        layout.base = base
        layout.words_total = cs.arch.spm_banks * cs.arch.spm_bytes_per_bank \
            // 2
        if cursor > layout.words_total:
            return None                      # SPM exhausted on load
        return layout

    def _addresses_fit(self, program: _Program, layout: _Layout) -> bool:
        size_of = dict(zip(layout.names, layout.sizes))
        for cn in self._mem_nodes:
            size = size_of.get(cn.access.array)
            if size is None:
                return False                 # unallocated array access
            lo, hi = program.addr_bounds[cn.node_id]
            if lo < 0 or hi >= size:
                return False                 # out-of-bounds access
        return True

    # ------------------------------------------------------------------
    # The fast path
    # ------------------------------------------------------------------
    def _run(self, program: _Program, layout: _Layout, memory: MemoryImage,
             verify: bool) -> SimulationReport:
        cs = self.compiled
        total = program.total
        data = (ctypes.c_uint16 * max(1, layout.words_total))()
        for name in layout.names:
            start = layout.base[name]
            for offset, value in enumerate(memory.array(name)):
                data[start + offset] = value & 0xFFFF
        mem_base = (ctypes.c_int64 * max(1, program.n_mem))(
            *[layout.base[cn.access.array] for cn in self._mem_nodes])
        out = (ctypes.c_uint16 * max(1, total * cs.dfg.num_nodes))()

        conflicts = self._fn(data, mem_base, program.addr_rel,
                             total, program.end_cycle, out)

        report = SimulationReport(iterations=total,
                                  cycles=program.end_cycle + 1)
        report.fu_firings = program.fu_firings
        report.spm_reads = program.spm_reads
        report.spm_writes = program.spm_writes
        report.transport_occupancies = program.transport
        report.bank_conflicts = int(conflicts)
        final = MemoryImage({
            name: list(data[layout.base[name]:layout.base[name]
                            + len(memory.array(name))])
            for name in layout.names
        })
        return finish_verify(report, cs.dfg, memory.copy(), final, total,
                             verify)
