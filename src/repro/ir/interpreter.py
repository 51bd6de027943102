"""Reference interpreter: the golden model the simulator is checked against.

The interpreter executes a DFG over its whole iteration space with exact
16-bit semantics.  Values crossing iterations (``distance > 0`` edges) are
read from the producing node's value ``distance`` iterations ago; before the
first producing iteration they read as the consumer's initialization value
(0 unless a node annotation says otherwise), matching how the statically
scheduled fabric primes its registers.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import IterationWindowError, SimulationError
from repro.ir.analysis import topological_order
from repro.ir.graph import DFG
from repro.ir.ops import OP_ARITY, OP_EVAL, WORD_MASK, Opcode, to_unsigned


class MemoryImage:
    """A named collection of 16-bit word arrays (models SPM contents)."""

    def __init__(self, arrays: dict[str, list[int]] | None = None) -> None:
        self._arrays: dict[str, list[int]] = {}
        for name, values in (arrays or {}).items():
            self._arrays[name] = [to_unsigned(value) for value in values]

    def ensure(self, name: str, size: int) -> None:
        """Create ``name`` zero-filled (or grow it) to at least ``size``."""
        current = self._arrays.setdefault(name, [])
        if len(current) < size:
            current.extend([0] * (size - len(current)))

    def read(self, name: str, offset: int) -> int:
        try:
            array = self._arrays[name]
        except KeyError:
            raise SimulationError(f"read from unknown array '{name}'") from None
        if not 0 <= offset < len(array):
            raise SimulationError(
                f"read '{name}'[{offset}] out of bounds (size {len(array)})"
            )
        return array[offset]

    def write(self, name: str, offset: int, value: int) -> None:
        try:
            array = self._arrays[name]
        except KeyError:
            raise SimulationError(f"write to unknown array '{name}'") from None
        if not 0 <= offset < len(array):
            raise SimulationError(
                f"write '{name}'[{offset}] out of bounds (size {len(array)})"
            )
        array[offset] = to_unsigned(value)

    def array(self, name: str) -> list[int]:
        """A copy of one array's contents."""
        return list(self._arrays[name])

    @property
    def names(self) -> list[str]:
        return sorted(self._arrays)

    def copy(self) -> "MemoryImage":
        return MemoryImage({name: list(vals) for name, vals in self._arrays.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return self._arrays == other._arrays


def required_array_sizes(dfg: DFG) -> dict[str, int]:
    """Max element offset + 1 touched per array over the iteration space.

    Walks the corner points of the iteration space per access (affine
    accesses reach their extrema at corners), so it is exact and cheap.
    """
    sizes: dict[str, int] = defaultdict(int)
    for node in dfg.memory_nodes:
        access = node.access
        assert access is not None
        max_offset = access.base
        for dim, coeff in enumerate(access.coeffs):
            extent = dfg.trip_counts[dim] - 1 if dim < len(dfg.trip_counts) else 0
            if coeff > 0:
                max_offset += coeff * extent
        sizes[access.array] = max(sizes[access.array], max_offset + 1)
    return dict(sizes)


def iteration_window(dfg: DFG, iterations: int | None) -> int:
    """The number of iterations a run covers: all of ``dfg``'s iteration
    space when ``iterations`` is ``None``, else ``iterations`` itself.

    Every simulator and the interpreter check their window here.  A
    window must lie in ``1..dfg.iterations``: past the end,
    :meth:`DFG.iteration_indices` would wrap the outermost index and
    silently re-run points already covered.
    """
    available = dfg.iterations
    total = available if iterations is None else iterations
    if total < 1:
        raise IterationWindowError(
            f"need at least one iteration (got {total}; '{dfg.name}' has "
            f"{available})", requested=total, available=available)
    if total > available:
        raise IterationWindowError(
            f"{total} iterations exceed the {available}-point iteration "
            f"space of '{dfg.name}'", requested=total, available=available)
    return total


#: Interpreter step kinds (first field of a bound step).
_ALU2 = 0
_ALU1 = 1
_ALU3 = 2
_LOAD = 3
_STORE = 4
_CHECKED = 5            # a load/store through the image's checked access
_RAISE = 6              # a node that can never execute


class DFGInterpreter:
    """Execute a DFG over its iteration space against a memory image.

    The DFG is read once per instance into a plan: per node (in
    topological order) its opcode's evaluator from
    :data:`~repro.ir.ops.OP_EVAL` and one ``(source, distance)`` pair
    per argument slot.  Each run binds the plan to dense per-node value
    histories and the memory's arrays, so the per-iteration loop is list
    indexing and one call per node.  A load or store that may leave its
    array goes through the image's checked access, and a node that can
    never execute (a missing operand, a store without a value) raises
    when reached, so every error surfaces at the same point as before.
    """

    def __init__(self, dfg: DFG) -> None:
        self.dfg = dfg
        self._order = topological_order(dfg)
        self._plan: list[tuple] | None = None

    def prepare_memory(self, memory: MemoryImage | None = None,
                       fill: int | None = None) -> MemoryImage:
        """Size every array the DFG touches; optionally pattern-fill reads.

        With ``fill`` given, arrays that are read get deterministic nonzero
        contents ``(fill + 7 * index) mod 2^16`` so simulator mismatches
        cannot hide behind zeros.
        """
        memory = memory or MemoryImage()
        sizes = required_array_sizes(self.dfg)
        for name, size in sizes.items():
            memory.ensure(name, size)
        if fill is not None:
            for name in self.dfg.arrays_read():
                array = memory.array(name)
                memory.ensure(name, len(array))
                for index in range(len(array)):
                    if array[index] == 0:
                        memory.write(name, index,
                                     to_unsigned(fill + 7 * index))
        return memory

    def run(self, memory: MemoryImage, iterations: int | None = None,
            ) -> dict[int, list[int]]:
        """Execute ``iterations`` points (default: all); mutates ``memory``.

        Returns the per-node value history: ``history[node_id][k]`` is the
        value node produced in iteration ``k`` (STORE nodes record the value
        they wrote).
        """
        dfg = self.dfg
        total = iteration_window(dfg, iterations)
        history: dict[int, list[int]] = {
            node.node_id: [0] * total for node in dfg.nodes
        }
        if self._plan is None:
            self._plan = self._build_plan()
        plan = self._plan
        # Iterations below an operand's distance read the consumer's init
        # value; each gets its own binding, the rest share one.
        warmup = max((distance for _node, _kind, args, _error in plan
                      for source, distance in args if source is not None),
                     default=0)
        accesses = self._bind_accesses(plan, memory, total)
        steady = self._bind(plan, history, accesses, total, None)
        mask = WORD_MASK
        for k in range(total):
            steps = steady if k >= warmup else self._bind(
                plan, history, accesses, total, k)
            for kind, out, func, h0, d0, h1, d1, h2, d2, aux in steps:
                if kind == _ALU2:
                    out[k] = func(h0[k - d0], h1[k - d1])
                elif kind == _LOAD:
                    out[k] = aux[0][aux[1][k]]
                elif kind == _ALU1:
                    out[k] = func(h0[k - d0])
                elif kind == _STORE:
                    value = h0[k - d0]
                    aux[0][aux[1][k]] = value & mask
                    out[k] = value
                elif kind == _ALU3:
                    out[k] = func(h0[k - d0], h1[k - d1], h2[k - d2])
                elif kind == _CHECKED:
                    # An access that may leave its array: the memory
                    # image's own read/write raise where it does.
                    address = aux.access.address(dfg.iteration_indices(k))
                    if aux.op is Opcode.LOAD:
                        out[k] = memory.read(aux.access.array, address)
                    else:
                        value = h0[k - d0]
                        memory.write(aux.access.array, address, value)
                        out[k] = value
                else:
                    raise SimulationError(aux(k))
        return history

    # ------------------------------------------------------------------
    # Plan: built once per instance, bound once per run
    # ------------------------------------------------------------------
    def _build_plan(self) -> list[tuple]:
        """Per node in topological order: ``(node, kind, args, error)``
        where ``args`` lists ``(source id, distance)`` per argument slot,
        or ``(None, value)`` for an immediate (the constant, or the
        unpredicated SEL's 1).  A node that can never execute (a store
        without a value, an op missing an operand) has kind ``_RAISE``
        and ``error``, its message for an iteration."""
        dfg = self.dfg
        plan = []
        for node_id in self._order:
            node = dfg.node(node_id)
            operands: dict[int, tuple[int, int]] = {}
            for edge in dfg.in_edges(node_id):
                if not edge.is_ordering:
                    operands[edge.operand_index] = (edge.src, edge.distance)
            args: list[tuple] = []
            error = None
            if node.op is Opcode.LOAD:
                kind = _LOAD
            elif node.op is Opcode.STORE:
                kind = _STORE
                if 0 in operands:
                    args.append(operands[0])
                elif node.const is not None:
                    args.append((None, to_unsigned(node.const)))
                else:
                    kind = _RAISE
                    error = (lambda k, name=node.name:
                             f"store '{name}' has no value in iter {k}")
            else:
                const_used = False
                for slot in range(OP_ARITY[node.op]):
                    if slot in operands:
                        args.append(operands[slot])
                    elif node.const is not None and not const_used:
                        args.append((None, to_unsigned(node.const)))
                        const_used = True
                    elif node.op is Opcode.SEL and slot == 2:
                        args.append((None, 1))  # unpredicated select
                    else:
                        kind = _RAISE
                        message = f"'{node.name}' missing operand {slot}"
                        error = (lambda k, message=message: message)
                        break
                else:
                    kind = (_ALU1, _ALU2, _ALU3)[len(args) - 1]
            plan.append((node, kind, tuple(args), error))
        return plan

    def _bind_accesses(self, plan, memory: MemoryImage, total: int
                       ) -> dict[int, tuple[list[int], list[int]]]:
        """Per memory node whose every access in the window is in
        bounds: its array (the memory's own list) and its address per
        iteration.  The others run checked."""
        trips = self.dfg.trip_counts
        accesses = {}
        for node, kind, _args, _error in plan:
            if kind not in (_LOAD, _STORE):
                continue
            access = node.access
            array = memory._arrays.get(access.array)
            if array is None or len(access.coeffs) > len(trips):
                continue
            addrs = access.addresses(trips, total)
            if 0 <= min(addrs) and max(addrs) < len(array):
                accesses[node.node_id] = (array, addrs)
        return accesses

    def _bind(self, plan, history, accesses, total: int,
              warm_k: int | None) -> list[tuple]:
        """Bind the plan to this run's histories and arrays.  With
        ``warm_k`` set, operands from before iteration 0 read as the
        consumer's init value (the binding for that one iteration)."""
        constants: dict[int, list[int]] = {}

        def constant(value: int) -> list[int]:
            if value not in constants:
                constants[value] = [value] * total
            return constants[value]

        steps = []
        for node, kind, args, error in plan:
            sources: list = []
            for source, distance in args:
                if source is None:
                    sources += (constant(distance), 0)
                elif warm_k is not None and distance > warm_k:
                    init = to_unsigned(int(node.annotations.get("init", 0)))
                    sources += (constant(init), 0)
                else:
                    sources += (history[source], distance)
            sources += [None, 0] * (3 - len(args))
            aux = error
            if kind in (_LOAD, _STORE):
                aux = accesses.get(node.node_id)
                if aux is None:
                    kind, aux = _CHECKED, node
            steps.append((kind, history[node.node_id],
                          OP_EVAL.get(node.op), *sources, aux))
        return steps

