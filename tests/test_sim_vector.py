"""Conformance suite for the vectorized numpy simulation backend.

The invariant (extending the engine chain of ``tests/test_sim_engine.py``):
numpy execution is **bit-identical** to the compiled engine — same
:class:`SimulationReport` counters (including ``bank_conflicts``), same
verify tri-state and mismatch lists, same errors on the same malformed
mappings — across the golden small-grid mappings and the handcrafted
corruption cases.  Batched execution must equal sequential execution
window for window.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SimulationError
from repro.eval.harness import build_arch, clear_caches, simulate_kernel
from repro.frontend import compile_kernel
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.ir.ops import COMPUTE_OPS, OP_ARITY, evaluate
from repro.mapping.engine import get_mapper
from repro.sim import (
    CGRASimulator, Scratchpad, TraceRecorder, set_simulation_engine,
    simulation_engine,
)
from repro.sim import vector
from repro.sim.vector import VectorSchedule, vec_evaluate
from repro.workloads import get_dfg

GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]
GOLDEN_ARCHES = [("st", "pathfinder"), ("plaid", "plaid")]


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    yield
    clear_caches()


def _mapping(workload: str, arch_key: str, mapper_key: str):
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)
    return get_mapper(mapper_key).make(seed=3).map(dfg, arch)


GEMV = """
#pragma plaid
for (i = 0; i < 4; i++) {
  for (j = 0; j < 4; j++) {
    y[i] += A[i][j] * x[j];
  }
}
"""


def _small_mapping():
    dfg = compile_kernel(GEMV, name="gemv", array_shapes={"A": (4, 4)})
    arch = build_arch("st")
    return get_mapper("sa").make(seed=9).map(dfg, arch)


def _fast_path_used(simulator: CGRASimulator) -> bool:
    """True iff at least one cached value plan compiled (no delegation)."""
    vector = simulator.vector()
    return any(plan is not None for plan in vector._plans.values())


# ---------------------------------------------------------------------------
# Bit-identical execution across the golden grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("arch_key,mapper_key", GOLDEN_ARCHES)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_numpy_matches_compiled_bit_for_bit(workload, arch_key, mapper_key):
    mapping = _mapping(workload, arch_key, mapper_key)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    got = simulator.run(memory, iterations=6, engine="numpy")
    want = simulator.run(memory, iterations=6, engine="compiled")
    assert got == want                       # every counter, every field
    assert got.verified is True, got.mismatches[:3]
    assert got.bank_conflicts == want.bank_conflicts
    # The vectorized path actually ran (golden mappings never delegate).
    assert _fast_path_used(simulator)


@pytest.mark.parametrize("iterations", [1, 2, None])
def test_conformance_across_window_sizes(iterations):
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=5)
    simulator = CGRASimulator(mapping)
    got = simulator.run(memory, iterations=iterations, engine="numpy")
    want = simulator.run(memory, iterations=iterations, engine="compiled")
    assert got == want
    assert got.verified is True


def test_mismatch_reports_are_identical():
    """Corrupt the program *after* compilation (bump an instruction
    constant): both engines execute the captured schedule and must
    report the exact same MISMATCH against the freshly interpreted
    reference."""
    mapping = _mapping("dwconv", "st", "pathfinder")
    simulator = CGRASimulator(mapping)
    simulator.compiled()                     # freeze the firing tables
    node = next(n for n in mapping.dfg.nodes if n.const is not None)
    original = node.const
    node.const = (node.const + 5) & 0x7F
    try:
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        got = simulator.run(memory, iterations=6, engine="numpy")
        want = simulator.run(memory, iterations=6, engine="compiled")
    finally:
        # get_dfg() shares one cached DFG per workload; undo the
        # corruption so later tests see the real dwconv program.
        node.const = original
    assert got == want
    assert got.verified is False
    assert got.mismatches == want.mismatches and got.mismatches


def test_zero_iterations_rejected():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run(memory, iterations=0, engine="numpy")
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run_batch([memory], iterations=0, engine="numpy")


def test_verify_false_is_unverified():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    got = simulator.run(memory, iterations=2, verify=False, engine="numpy")
    want = simulator.run(memory, iterations=2, verify=False,
                         engine="compiled")
    assert got == want
    assert got.verified is None


def test_negative_host_words_mask_like_the_scratchpad():
    """Host images may carry signed words; both engines mask them to 16
    bits on load (Scratchpad's to_unsigned) and agree bit for bit."""
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    arrays = {name: list(memory.array(name)) for name in memory.names}
    arrays["x"] = [-1, -32768, 7, 65535][:len(arrays["x"])]
    signed = MemoryImage(arrays)
    simulator = CGRASimulator(mapping)
    got = simulator.run(signed, iterations=4, verify=False, engine="numpy")
    want = simulator.run(signed, iterations=4, verify=False,
                         engine="compiled")
    assert got == want


# ---------------------------------------------------------------------------
# Error conformance on malformed mappings (delegation path)
# ---------------------------------------------------------------------------
def _routed_victim(mapping):
    index = next(i for i, route in mapping.routes.items()
                 if route.places and not route.bypass)
    return index, mapping.routes[index]


def _raises_identically(mapping, iterations=4):
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    with pytest.raises(Exception) as numpy_err:
        CGRASimulator(mapping).run(memory, iterations=iterations,
                                   engine="numpy")
    with pytest.raises(Exception) as compiled_err:
        CGRASimulator(mapping).run(memory, iterations=iterations,
                                   engine="compiled")
    assert type(numpy_err.value) is type(compiled_err.value)
    assert str(numpy_err.value) == str(compiled_err.value)
    return numpy_err.value


def test_redirected_route_raises_identical_error():
    mapping = _small_mapping()
    index, route = _routed_victim(mapping)
    edge = mapping.dfg.edges[index]
    consumer_fu = mapping.placement[edge.dst][0]
    readable = set(mapping.arch.consume_places[consumer_fu])
    other = next(p.place_id for p in mapping.arch.places
                 if p.place_id not in readable)
    bad = route.places[:-1] + ((other, route.places[-1][1]),)
    mapping.routes[index] = replace(route, places=bad)
    error = _raises_identically(mapping)
    assert isinstance(error, SimulationError)
    assert "cannot read place" in str(error)


def test_starved_consumer_raises_identical_error():
    mapping = _small_mapping()
    index, route = _routed_victim(mapping)
    place, cycle = route.places[-1]
    bad = route.places[:-1] + ((place, cycle + 1),)
    mapping.routes[index] = replace(route, places=bad)
    error = _raises_identically(mapping)
    assert isinstance(error, SimulationError)
    assert "not there" in str(error)


def test_missing_route_raises_identical_error():
    mapping = _small_mapping()
    index, _route = _routed_victim(mapping)
    del mapping.routes[index]
    error = _raises_identically(mapping)
    assert isinstance(error, KeyError)


def test_overstuffed_place_same_outcome():
    mapping = _small_mapping()
    indices = [i for i, r in mapping.routes.items()
               if r.places and not r.bypass]
    if len(indices) < 2:
        pytest.skip("mapping too small to overstuff a place")
    target_place = mapping.routes[indices[0]].places[-1][0]
    capacity = mapping.arch.place(target_place).capacity
    for index in indices[1:capacity + 3]:
        route = mapping.routes[index]
        bad = route.places[:-1] + ((target_place, route.places[-1][1]),)
        mapping.routes[index] = replace(route, places=bad)

    def outcome(engine):
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        try:
            return ("ok", CGRASimulator(mapping).run(
                memory, iterations=4, verify=False, engine=engine))
        except Exception as error:      # noqa: BLE001 — outcome capture
            return ("err", type(error).__name__, str(error))

    assert outcome("numpy") == outcome("compiled")


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------
def test_batched_equals_sequential():
    mapping = _small_mapping()
    simulator = CGRASimulator(mapping)
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2, 3, 4)]
    batch = simulator.run_batch(memories, iterations=6, engine="numpy")
    sequential = [simulator.run(m, iterations=6, engine="numpy")
                  for m in memories]
    compiled = simulator.run_batch(memories, iterations=6,
                                   engine="compiled")
    assert batch == sequential == compiled
    assert all(report.verified for report in batch)
    assert _fast_path_used(simulator)


def test_batched_mixed_layouts_split_into_groups():
    """Windows whose array layouts differ (here: one window pads an
    array) still batch correctly — same-layout windows stack, the odd
    one runs on its own, and every report matches the compiled engine
    in order."""
    mapping = _small_mapping()
    simulator = CGRASimulator(mapping)
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2)]
    padded = {name: list(memories[0].array(name))
              for name in memories[0].names}
    padded["y"] = padded["y"] + [0] * 4
    memories.insert(1, MemoryImage(padded))
    batch = simulator.run_batch(memories, iterations=6, engine="numpy")
    compiled = simulator.run_batch(memories, iterations=6,
                                   engine="compiled")
    assert batch == compiled
    assert all(report.verified for report in batch)


def test_empty_batch_is_empty():
    simulator = CGRASimulator(_small_mapping())
    assert simulator.run_batch([], engine="numpy") == []
    assert simulator.run_batch([], engine="compiled") == []


def test_without_numpy_every_run_delegates_to_compiled(monkeypatch):
    monkeypatch.setattr(vector, "HAVE_NUMPY", False)
    mapping = _small_mapping()
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2)]
    simulator = CGRASimulator(mapping)
    got = simulator.run(memories[0], iterations=4, engine="numpy")
    batch = simulator.run_batch(memories, iterations=4, engine="numpy")
    assert not simulator.vector()._plans          # no value plan compiled
    compiled = CGRASimulator(mapping)
    assert got == compiled.run(memories[0], iterations=4, engine="compiled")
    assert batch == compiled.run_batch(memories, iterations=4,
                                       engine="compiled")


# ---------------------------------------------------------------------------
# Tracing: per-event traces fall back to the compiled engine
# ---------------------------------------------------------------------------
def test_traced_numpy_run_matches_compiled_trace():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    numpy_trace = TraceRecorder()
    compiled_trace = TraceRecorder()
    got = CGRASimulator(mapping, trace=numpy_trace).run(
        memory, iterations=3, engine="numpy")
    want = CGRASimulator(mapping, trace=compiled_trace).run(
        memory, iterations=3, engine="compiled")
    assert got == want
    assert numpy_trace.events == compiled_trace.events
    assert numpy_trace.events


def test_batch_per_window_traces():
    """A shared recorder with a limit fills on the first window; a list
    of per-window recorders traces every window independently — on both
    engines."""
    mapping = _small_mapping()
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2, 3)]
    for engine in ("compiled", "numpy"):
        shared = TraceRecorder(limit=5)
        CGRASimulator(mapping).run_batch(memories, iterations=2,
                                         engine=engine, trace=shared)
        assert len(shared) == 5              # filled by the first window

        per_window = [TraceRecorder(limit=5) for _ in memories]
        CGRASimulator(mapping).run_batch(memories, iterations=2,
                                         engine=engine, trace=per_window)
        assert all(len(recorder) == 5 for recorder in per_window)

    sparse = [None, TraceRecorder(), None]
    CGRASimulator(mapping).run_batch(memories, iterations=2,
                                     engine="numpy", trace=sparse)
    assert sparse[1].events                  # only window 1 traced


def test_batch_trace_list_length_mismatch_raises():
    mapping = _small_mapping()
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2)]
    with pytest.raises(SimulationError, match="per-window trace list"):
        CGRASimulator(mapping).run_batch(
            memories, iterations=2, trace=[TraceRecorder()])


# ---------------------------------------------------------------------------
# Engine selection (knob + harness + reference batch path)
# ---------------------------------------------------------------------------
def test_engine_knob_round_trip():
    previous = set_simulation_engine("numpy")
    try:
        assert simulation_engine() == "numpy"
        mapping = _small_mapping()
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        simulator = CGRASimulator(mapping)
        report = simulator.run(memory, iterations=4)   # engine=None
        assert report.verified is True
        assert _fast_path_used(simulator)
    finally:
        set_simulation_engine(previous)
    with pytest.raises(ValueError, match="unknown simulation engine"):
        set_simulation_engine("warp")


def test_harness_numpy_engine_matches_compiled():
    got = simulate_kernel("dwconv", "plaid", iterations=4, engine="numpy")
    want = simulate_kernel("dwconv", "plaid", iterations=4,
                           engine="compiled")
    assert got == want
    assert got.verified is True
    spatial = simulate_kernel("dwconv", "spatial", iterations=4,
                              engine="numpy")   # accepted for symmetry
    assert spatial.verified is True
    with pytest.raises(ReproError, match="unknown simulation engine"):
        simulate_kernel("dwconv", "plaid", engine="warp")


def test_run_batch_reference_engine_matches():
    mapping = _small_mapping()
    simulator = CGRASimulator(mapping)
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2)]
    reference = simulator.run_batch(memories, iterations=4,
                                    engine="reference")
    compiled = simulator.run_batch(memories, iterations=4,
                                   engine="compiled")
    assert reference == compiled


# ---------------------------------------------------------------------------
# vec_evaluate: elementwise conformance with the scalar ALU
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
                          st.integers(0, 0xFFFF)),
                min_size=1, max_size=16))
def test_vec_evaluate_matches_scalar_evaluate(rows):
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    for op in COMPUTE_OPS:
        arity = OP_ARITY[op]
        vectored = vec_evaluate(op, columns[:arity])
        scalar = [evaluate(op, list(row[:arity])) for row in rows]
        assert vectored.dtype == np.uint16
        assert vectored.tolist() == scalar, op.name


# ---------------------------------------------------------------------------
# Array-backed SPM images round-trip exactly
# ---------------------------------------------------------------------------
_image_strategy = st.dictionaries(
    st.text(alphabet="abcxyz", min_size=1, max_size=3),
    st.lists(st.integers(-40000, 70000), min_size=0, max_size=12),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(_image_strategy)
def test_spm_image_array_round_trip(arrays):
    """The vector engine's array-backed SPM (int64 mask -> uint16 ->
    tolist) produces exactly the image the Scratchpad produces for the
    same host arrays."""
    image = MemoryImage(arrays)
    spm = Scratchpad(banks=4, bytes_per_bank=4096)
    spm.load_image(image.copy())
    via_scratchpad = spm.dump_image()
    words = {
        name: (np.array(image.array(name), dtype=np.int64)
               & 0xFFFF).astype(np.uint16)
        for name in image.names
    }
    via_arrays = MemoryImage({name: words[name].tolist()
                              for name in image.names})
    assert via_arrays == via_scratchpad


# ---------------------------------------------------------------------------
# SPM bank accounting (per-bank charges vs the aggregate port check)
# ---------------------------------------------------------------------------
def test_scratchpad_counts_bank_conflicts():
    spm = Scratchpad(banks=4, bytes_per_bank=64)
    spm.allocate("a", 16)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.read("a", 4)                         # same bank (offset % 4)
    assert spm.bank_conflicts == 1
    spm.read("a", 1)                         # fresh bank: no conflict
    assert spm.bank_conflicts == 1
    spm.begin_cycle()                        # per-cycle set resets...
    spm.write("a", 8, 7)
    assert spm.bank_conflicts == 1           # ...but the total accumulates
    spm.write("a", 12, 7)
    assert spm.bank_conflicts == 2


def test_scratchpad_aggregate_port_check_unchanged():
    """The raise still belongs to the aggregate check — per-bank charges
    are diagnostic only, so historical error behavior is preserved."""
    spm = Scratchpad(banks=2, bytes_per_bank=64)
    spm.allocate("a", 8)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.read("a", 2)                         # same bank: conflict, no raise
    with pytest.raises(SimulationError, match="more than 2 SPM accesses"):
        spm.read("a", 1)
    assert spm.bank_conflicts == 1


def test_bank_conflicts_surface_on_reports_across_engines():
    report = simulate_kernel("gesum_u2", "st", "pathfinder")
    assert report.bank_conflicts > 0         # golden mapping has repeats
    for engine in ("numpy", "reference"):
        other = simulate_kernel("gesum_u2", "st", "pathfinder",
                                engine=engine)
        assert other.bank_conflicts == report.bank_conflicts
