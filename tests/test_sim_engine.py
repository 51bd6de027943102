"""Conformance suite for the compiled simulation engine.

The invariant (mirroring the MRRG-pool rule): compiled execution is
**bit-identical** to the interpreted reference simulator — same
:class:`SimulationReport` counters, same verify results, same trace
events, same errors on the same malformed mappings — across the golden
small-grid mappings and the handcrafted error cases.
"""

from dataclasses import replace

import pytest

from repro.errors import IterationWindowError, ReproError, SimulationError
from repro.eval.harness import build_arch, clear_caches, simulate_kernel
from repro.frontend import compile_kernel
from repro.ir.builder import DFGBuilder
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.ir.ops import Opcode
from repro.mapping.engine import get_mapper
from repro.sim import CGRASimulator, SpatialSimulator, TraceRecorder
from repro.sim.engine import SimulationReport
from repro.workloads import get_dfg

#: The golden small grid's workloads (tests/data/golden_small_grid.json)
#: on both temporal fabric styles, with fast per-style mappers.
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


# ---------------------------------------------------------------------------
# Bit-identical execution across the golden grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("arch_key,mapper_key", GOLDEN_ARCHES)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_compiled_matches_reference_bit_for_bit(workload, arch_key,
                                                mapper_key):
    mapping = _mapping(workload, arch_key, mapper_key)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    compiled_trace = TraceRecorder()
    reference_trace = TraceRecorder()
    got = CGRASimulator(mapping, trace=compiled_trace).run(
        memory, iterations=6)
    want = CGRASimulator(mapping, trace=reference_trace).run_reference(
        memory, iterations=6)
    assert got == want                       # every counter, every field
    assert got.verified is True, got.mismatches[:3]
    assert compiled_trace.events == reference_trace.events


def _screened_path_used(simulator: CGRASimulator, iterations: int) -> bool:
    """True iff the screen admitted this window (the run took the
    screened replay, not the checked one)."""
    return simulator.compiled().screened(iterations) is not None


@pytest.mark.parametrize("iterations", [1, 2, 6, None])
@pytest.mark.parametrize("arch_key,mapper_key", GOLDEN_ARCHES)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_screened_replay_matches_checked_and_reference(workload, arch_key,
                                                       mapper_key,
                                                       iterations):
    """Untraced runs take the screened replay; it must agree field for
    field with the checked replay and the interpreted oracle."""
    mapping = _mapping(workload, arch_key, mapper_key)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    screened = simulator.run(memory, iterations=iterations)
    checked = simulator.compiled().execute_checked(memory,
                                                   iterations=iterations)
    reference = simulator.run_reference(memory, iterations=iterations)
    assert screened == checked == reference
    assert screened.verified is True, screened.mismatches[:3]
    total = mapping.dfg.iterations if iterations is None else iterations
    assert _screened_path_used(simulator, total)


@pytest.mark.parametrize("arch_key,mapper_key", GOLDEN_ARCHES)
def test_screened_replay_reads_nonzero_init_values(arch_key, mapper_key):
    """Register recurrences at distances 1 and 2 with nonzero init
    values: before a producer's first iteration the screened replay must
    read each consumer's own init value, as the checked replay does."""
    b = DFGBuilder("recur", trip_counts=(12,))
    x = b.load("x", coeffs=(1,))
    acc = b.op(Opcode.ADD, x)
    b.recurrence(acc, acc, operand_index=1, distance=1)
    acc.annotations["init"] = 5
    lag = b.op(Opcode.SUB, x)
    b.recurrence(acc, lag, operand_index=1, distance=2)
    lag.annotations["init"] = -3
    b.store("y", acc, coeffs=(1,))
    b.store("z", lag, coeffs=(1,))
    dfg = b.build()
    mapping = get_mapper(mapper_key).make(seed=3).map(dfg,
                                                       build_arch(arch_key))
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    screened = simulator.run(memory)
    assert screened == simulator.compiled().execute_checked(memory) \
        == simulator.run_reference(memory)
    assert screened.verified is True
    assert _screened_path_used(simulator, 12)


def test_screened_mismatch_reports_are_identical():
    """Corrupt the program *after* compilation (bump an instruction
    constant): the screened and checked replays both execute the
    captured tables and must report the exact same MISMATCH against the
    freshly interpreted reference."""
    mapping = _mapping("dwconv", "st", "pathfinder")
    simulator = CGRASimulator(mapping)
    simulator.compiled()                     # freeze the firing tables
    node = next(n for n in mapping.dfg.nodes if n.const is not None)
    original = node.const
    node.const = (node.const + 5) & 0x7F
    try:
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        got = simulator.run(memory, iterations=6)
        want = simulator.compiled().execute_checked(memory, iterations=6)
    finally:
        # get_dfg() shares one cached DFG per workload; undo the
        # corruption so later tests see the real dwconv program.
        node.const = original
    assert _screened_path_used(simulator, 6)
    assert got == want
    assert got.verified is False
    assert got.mismatches == want.mismatches and got.mismatches


def test_screened_spm_bounds_error_is_identical():
    """SPM bounds depend on the memory image, not the tables: a screened
    window over a truncated array raises the checked replay's error."""
    mapping = _small_mapping()
    prepared = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    arrays = {name: prepared.array(name) for name in prepared.names}
    arrays["x"] = arrays["x"][:2]
    memory = MemoryImage(arrays)
    simulator = CGRASimulator(mapping)
    outcomes = []
    for runner in (simulator.run, simulator.compiled().execute_checked,
                   simulator.run_reference):
        with pytest.raises(SimulationError) as error:
            runner(memory, iterations=8)
        outcomes.append(str(error.value))
    assert _screened_path_used(simulator, 8)
    assert len(set(outcomes)) == 1 and "out of bounds" in outcomes[0]


def test_route_carrying_another_net_is_screened_out():
    """A route whose net is not the consumer's producer never delivers
    the operand: the screen must send the window to the checked replay,
    which fails exactly like the oracle."""
    mapping = _small_mapping()
    index, route = _routed_victim(mapping)
    other = next(node.node_id for node in mapping.dfg.nodes
                 if node.node_id != route.net)
    mapping.routes[index] = replace(route, net=other)
    simulator = CGRASimulator(mapping)
    assert not _screened_path_used(simulator, 4)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)

    def outcome(runner):
        try:
            return ("ok", runner(memory, iterations=4))
        except Exception as error:      # noqa: BLE001 — outcome capture
            return ("err", type(error).__name__, str(error))

    assert outcome(simulator.run) == outcome(
        CGRASimulator(mapping).run_reference)


def test_traced_runs_take_the_checked_replay():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping, trace=TraceRecorder())
    simulator.run(memory, iterations=4)
    assert simulator.compiled()._replays == {}
    assert simulator.trace.of_kind("exec")


@pytest.mark.parametrize("iterations", [1, 2, None])
def test_conformance_across_window_sizes(iterations):
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=5)
    got = CGRASimulator(mapping).run(memory, iterations=iterations)
    want = CGRASimulator(mapping).run_reference(memory,
                                                iterations=iterations)
    assert got == want
    assert got.verified is True


def test_compile_once_batched_windows():
    """run_batch reuses one compiled schedule; reports equal repeated
    single runs."""
    mapping = _small_mapping()
    simulator = CGRASimulator(mapping)
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2, 3)]
    batch = simulator.run_batch(memories, iterations=4)
    assert simulator.compiled() is simulator.compiled()   # cached
    singles = [CGRASimulator(mapping).run(m, iterations=4)
               for m in memories]
    assert batch == singles
    assert all(r.verified for r in batch)


def test_zero_iterations_rejected_by_both_engines():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run(memory, iterations=0)
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run_reference(memory, iterations=0)


@pytest.mark.parametrize("iterations", [-1, 17, 100000])
def test_window_past_iteration_space_rejected_everywhere(iterations):
    """A window must lie in 1..dfg.iterations (16 points here): every
    simulator front end raises the same structured error."""
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    runners = (simulator.run, simulator.run_reference,
               simulator.compiled().execute_checked,
               lambda m, iterations: simulator.run_batch(
                   [m], iterations=iterations))
    for runner in runners:
        with pytest.raises(IterationWindowError) as error:
            runner(memory, iterations=iterations)
        assert (error.value.requested, error.value.available) \
            == (iterations, 16)
    assert simulator.run(memory, iterations=16).verified is True


def test_spatial_window_past_iteration_space_rejected():
    dfg = get_dfg("dwconv")
    mapping = get_mapper("spatial").make(seed=3).map(
        dfg, build_arch("spatial"))
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    with pytest.raises(IterationWindowError, match="61 iterations exceed"):
        SpatialSimulator(mapping).simulate(memory, iterations=61)


def test_verify_false_is_unverified_in_both_engines():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    got = CGRASimulator(mapping).run(memory, iterations=2, verify=False)
    want = CGRASimulator(mapping).run_reference(memory, iterations=2,
                                                verify=False)
    assert got == want
    assert got.verified is None
    assert "UNVERIFIED" in got.summary()


# ---------------------------------------------------------------------------
# Error conformance on malformed mappings
# ---------------------------------------------------------------------------
def _routed_victim(mapping):
    index = next(i for i, route in mapping.routes.items()
                 if route.places and not route.bypass)
    return index, mapping.routes[index]


def _raises_identically(mapping, iterations=4):
    """Run both engines on one (malformed) mapping; both must raise the
    same exception type with the same payload."""
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    with pytest.raises(Exception) as compiled_err:
        CGRASimulator(mapping).run(memory, iterations=iterations)
    with pytest.raises(Exception) as reference_err:
        CGRASimulator(mapping).run_reference(memory, iterations=iterations)
    assert type(compiled_err.value) is type(reference_err.value)
    assert str(compiled_err.value) == str(reference_err.value)
    return compiled_err.value


def test_redirected_route_raises_identical_error():
    """Delivering to a place the consumer cannot read: same
    SimulationError, same message, from both engines."""
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
    """Delivering the final occupancy one cycle late starves the consumer
    with the 'expected value ... not there' error in both engines."""
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


def test_overstuffed_place_same_outcome_in_both_engines():
    """Redirecting every routed delivery into one shared place: whatever
    the outcome (capacity error, starved consumer, or a still-legal run),
    both engines must agree on it exactly."""
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

    def outcome(runner):
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        try:
            return ("ok", runner(memory, iterations=4, verify=False))
        except Exception as error:      # noqa: BLE001 — outcome capture
            return ("err", type(error).__name__, str(error))

    got = outcome(CGRASimulator(mapping).run)
    want = outcome(CGRASimulator(mapping).run_reference)
    assert got == want


# ---------------------------------------------------------------------------
# The unified report path (spatial + harness + summary)
# ---------------------------------------------------------------------------
def test_spatial_simulate_returns_shared_report():
    dfg = get_dfg("dwconv")
    arch = build_arch("spatial")
    mapping = get_mapper("spatial").make(seed=3).map(dfg, arch)
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    report = SpatialSimulator(mapping).simulate(memory, iterations=8)
    assert isinstance(report, SimulationReport)
    assert report.verified is True and not report.mismatches
    assert report.iterations == 8
    assert report.cycles == mapping.total_cycles(8)
    assert report.fu_firings > 0 and report.spm_reads > 0
    # Back-compat surface: run() still returns the mismatch list.
    assert SpatialSimulator(mapping).run(memory, iterations=8) == []
    skipped = SpatialSimulator(mapping).simulate(memory, iterations=8,
                                                 verify=False)
    assert skipped.verified is None


def test_spatial_trace_records_executions():
    dfg = get_dfg("dwconv")
    arch = build_arch("spatial")
    mapping = get_mapper("spatial").make(seed=3).map(dfg, arch)
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    trace = TraceRecorder(limit=20)
    SpatialSimulator(mapping, trace=trace).simulate(memory, iterations=2)
    assert trace.of_kind("exec")
    assert len(trace) <= 20


def test_harness_simulate_kernel_temporal_and_spatial():
    temporal = simulate_kernel("dwconv", "plaid", iterations=4)
    assert temporal.verified is True
    reference = simulate_kernel("dwconv", "plaid", iterations=4,
                                engine="reference")
    assert reference == temporal                 # bit-identical engines
    spatial = simulate_kernel("dwconv", "spatial", iterations=4)
    assert spatial.verified is True
    assert isinstance(spatial, SimulationReport)


def test_harness_simulate_kernel_rejects_unknown_engine():
    with pytest.raises(ReproError, match="unknown simulation engine"):
        simulate_kernel("dwconv", "plaid", engine="warp")


def test_report_summary_tri_state():
    assert "VERIFIED" in SimulationReport(1, 1, verified=True).summary()
    assert "MISMATCH" in SimulationReport(1, 1, verified=False).summary()
    assert "UNVERIFIED" in SimulationReport(1, 1, verified=None).summary()
