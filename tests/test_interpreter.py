"""Tests for the reference interpreter (golden model)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import IterationWindowError, SimulationError
from repro.ir.builder import DFGBuilder
from repro.ir.graph import DFG
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.ir.node import AffineAccess
from repro.ir.ops import Opcode, to_unsigned
from repro.workloads import all_workloads, get_dfg


def test_elementwise_axpy():
    b = DFGBuilder("axpy", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    y = b.load("y", coeffs=(1,))
    ax = b.op(Opcode.MUL, x, const=3)
    s = b.op(Opcode.ADD, ax, y)
    b.store("y", s, coeffs=(1,))
    dfg = b.build()

    memory = MemoryImage({"x": list(range(8)), "y": [10] * 8})
    DFGInterpreter(dfg).run(memory)
    assert memory.array("y") == [10 + 3 * i for i in range(8)]


def test_register_accumulator_with_init():
    b = DFGBuilder("sum", trip_counts=(5,))
    x = b.load("x", coeffs=(1,))
    acc = b.op(Opcode.ADD, x)
    b.recurrence(acc, acc, operand_index=1, distance=1)
    acc.annotations["init"] = 0
    b.store("out", acc)          # out[0] overwritten every iteration
    dfg = b.build()

    memory = MemoryImage({"x": [1, 2, 3, 4, 5], "out": [0]})
    history = DFGInterpreter(dfg).run(memory)
    assert memory.array("out") == [15]
    assert history[acc.node_id] == [1, 3, 6, 10, 15]


def test_memory_accumulator_2d():
    # y[i] += x[j] over a 2x3 space: every y[i] gets sum(x).
    b = DFGBuilder("rowsum", trip_counts=(2, 3))
    x = b.load("x", coeffs=(0, 1))
    y = b.load("y", coeffs=(1, 0))
    s = b.op(Opcode.ADD, x, y)
    b.store("y", s, coeffs=(1, 0))
    dfg = b.build()

    memory = MemoryImage({"x": [1, 2, 4], "y": [0, 100]})
    DFGInterpreter(dfg).run(memory)
    assert memory.array("y") == [7, 107]


def test_sixteen_bit_wraparound():
    b = DFGBuilder("wrap", trip_counts=(1,))
    x = b.load("x", coeffs=())
    s = b.op(Opcode.ADD, x, const=1)
    b.store("y", s)
    dfg = b.build()
    memory = MemoryImage({"x": [0xFFFF], "y": [0]})
    DFGInterpreter(dfg).run(memory)
    assert memory.array("y") == [0]


def test_out_of_bounds_read_raises():
    b = DFGBuilder("oob", trip_counts=(4,))
    x = b.load("x", coeffs=(2,))
    b.store("y", x, coeffs=(1,))
    dfg = b.build()
    memory = MemoryImage({"x": [0, 1], "y": [0] * 4})
    with pytest.raises(SimulationError):
        DFGInterpreter(dfg).run(memory)


def test_prepare_memory_sizes_arrays():
    b = DFGBuilder("size", trip_counts=(4, 4))
    a = b.load("A", coeffs=(4, 1))
    b.store("B", a, base=2, coeffs=(4, 1))
    dfg = b.build()
    memory = DFGInterpreter(dfg).prepare_memory(fill=5)
    assert len(memory.array("A")) == 16
    assert len(memory.array("B")) == 18
    # Fill pattern is nonzero and deterministic.
    assert memory.array("A")[1] == to_unsigned(5 + 7)


def test_store_of_instruction_constant():
    dfg = DFG("cstore", loop_dims=1, trip_counts=(3,))
    dfg.add_node(Opcode.STORE, access=AffineAccess("y", coeffs=(1,)),
                 const=9)
    dfg.validate()
    memory = MemoryImage({"y": [0, 0, 0]})
    DFGInterpreter(dfg).run(memory)
    assert memory.array("y") == [9, 9, 9]


def test_history_shape():
    b = DFGBuilder("hist", trip_counts=(3,))
    x = b.load("x", coeffs=(1,))
    s = b.op(Opcode.ADD, x, const=1)
    b.store("y", s, coeffs=(1,))
    dfg = b.build()
    memory = MemoryImage({"x": [5, 6, 7], "y": [0] * 3})
    history = DFGInterpreter(dfg).run(memory, iterations=2)
    assert all(len(vals) == 2 for vals in history.values())


# ---------------------------------------------------------------------------
# Lock: the interpreter's outputs are pinned, its errors are exact
# ---------------------------------------------------------------------------
LOCK = Path(__file__).parent / "data" / "interpreter_lock.json"


def _lock_digest(name: str, fill: int) -> str:
    """sha256 of every node history and the final memory of one full
    run on pattern-filled memory (compact, sorted-key JSON)."""
    interpreter = DFGInterpreter(get_dfg(name))
    memory = interpreter.prepare_memory(fill=fill)
    history = interpreter.run(memory)
    payload = json.dumps(
        {"history": {str(node_id): values
                     for node_id, values in history.items()},
         "memory": {array: memory.array(array) for array in memory.names}},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_interpreter_outputs_match_pinned_digests():
    """Histories and final memory of every registered workload (plus a
    tiled variant) over its whole iteration space match the digests
    pinned in ``tests/data/interpreter_lock.json``."""
    lock = json.loads(LOCK.read_text())
    names = [spec.name for spec in all_workloads()] + ["gemm_t4x4_u2"]
    assert sorted(lock["digests"]) == sorted(names)
    got = {name: _lock_digest(name, lock["fill"]) for name in names}
    assert got == lock["digests"]


def _image(memory: MemoryImage) -> dict[str, list[int]]:
    return {name: memory.array(name) for name in memory.names}


def test_store_without_value_raises_in_its_iteration():
    dfg = DFG("nostore", loop_dims=1, trip_counts=(3,))
    x = dfg.add_node(Opcode.LOAD, access=AffineAccess("x", coeffs=(1,)))
    store = dfg.add_node(Opcode.STORE, access=AffineAccess("y", coeffs=(1,)))
    dfg.add_edge(x, store, operand_index=0)
    dfg.add_node(Opcode.STORE, access=AffineAccess("z", coeffs=(1,)))
    memory = MemoryImage({"x": [4, 5, 6], "y": [0] * 3, "z": [0] * 3})
    with pytest.raises(SimulationError) as error:
        DFGInterpreter(dfg).run(memory)
    assert str(error.value) == "store 'n2' has no value in iter 0"
    # The valueless store is ready first, so nothing was written.
    assert _image(memory) == {"x": [4, 5, 6], "y": [0, 0, 0],
                              "z": [0, 0, 0]}


def test_missing_operand_raises_after_earlier_nodes_ran():
    dfg = DFG("missing", loop_dims=1, trip_counts=(3,))
    x = dfg.add_node(Opcode.LOAD, access=AffineAccess("x", coeffs=(1,)))
    store = dfg.add_node(Opcode.STORE, access=AffineAccess("y", coeffs=(1,)))
    dfg.add_edge(x, store, operand_index=0)
    add = dfg.add_node(Opcode.ADD)
    dfg.add_edge(x, add, operand_index=0)
    memory = MemoryImage({"x": [4, 5, 6], "y": [0] * 3})
    with pytest.raises(SimulationError) as error:
        DFGInterpreter(dfg).run(memory)
    assert str(error.value) == "'n2' missing operand 1"
    assert _image(memory) == {"x": [4, 5, 6], "y": [4, 0, 0]}


def test_out_of_bounds_read_raises_where_it_happens():
    """Iterations before the bad read complete (their stores land)."""
    b = DFGBuilder("oob", trip_counts=(5,))
    x = b.load("x", coeffs=(1,))
    s = b.op(Opcode.ADD, x, const=1)
    b.store("y", s, coeffs=(1,))
    memory = MemoryImage({"x": [1, 2, 3], "y": [0] * 5})
    with pytest.raises(SimulationError) as error:
        DFGInterpreter(b.build()).run(memory)
    assert str(error.value) == "read 'x'[3] out of bounds (size 3)"
    assert _image(memory) == {"x": [1, 2, 3], "y": [2, 3, 4, 0, 0]}


@pytest.mark.parametrize("iterations", [-3, 0, 7, 100000])
def test_window_outside_iteration_space_rejected(iterations):
    """A window must lie in 1..dfg.iterations: past the end the
    outermost index would wrap and re-run covered points."""
    b = DFGBuilder("win", trip_counts=(2, 3))
    x = b.load("x", coeffs=(0, 1))
    b.store("y", x, coeffs=(1, 0))
    memory = MemoryImage({"x": [1, 2, 3], "y": [0] * 2})
    with pytest.raises(IterationWindowError) as error:
        DFGInterpreter(b.build()).run(memory, iterations=iterations)
    assert isinstance(error.value, SimulationError)
    assert (error.value.requested, error.value.available) == (iterations, 6)
    assert str(iterations) in str(error.value) and "6" in str(error.value)
    assert _image(memory) == {"x": [1, 2, 3], "y": [0, 0]}
    history = DFGInterpreter(b.build()).run(memory, iterations=6)
    assert all(len(values) == 6 for values in history.values())


def test_recurrences_read_each_consumers_init():
    """Two consumers of one producer at distances 2 and 3 read their own
    init values before the producer's first iteration."""
    b = DFGBuilder("rec", trip_counts=(6,))
    x = b.load("x", coeffs=(1,))
    p = b.op(Opcode.ADD, x, const=1)
    c1 = b.op(Opcode.SUB, x)
    b.recurrence(p, c1, operand_index=1, distance=2)
    c1.annotations["init"] = 7
    c2 = b.op(Opcode.MAX, x)
    b.recurrence(p, c2, operand_index=1, distance=3)
    c2.annotations["init"] = -2
    b.store("y", b.op(Opcode.SEL, c1, c2), coeffs=(1,))
    memory = MemoryImage({"x": [3, 1, 4, 1, 5, 9], "y": [0] * 6})
    history = DFGInterpreter(b.build()).run(memory)
    assert history[c1.node_id] == [65532, 65530, 0, 65535, 0, 7]
    assert history[c2.node_id] == [3, 1, 4, 4, 5, 9]
