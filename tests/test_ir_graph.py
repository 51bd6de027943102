"""Unit tests for the DFG container and its invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DFGError
from repro.ir.graph import DFG, ORDERING, strongly_connected_components
from repro.ir.node import AffineAccess
from repro.ir.ops import Opcode


def make_chain():
    dfg = DFG("chain", loop_dims=1, trip_counts=(8,))
    a = dfg.add_node(Opcode.LOAD, access=AffineAccess("x", coeffs=(1,)))
    b = dfg.add_node(Opcode.ADD, const=1)
    c = dfg.add_node(Opcode.STORE, access=AffineAccess("y", coeffs=(1,)))
    dfg.add_edge(a, b, operand_index=0)
    dfg.add_edge(b, c, operand_index=0)
    return dfg, (a, b, c)


def test_nodes_in_id_order():
    dfg, (a, b, c) = make_chain()
    assert [n.node_id for n in dfg.nodes] == [0, 1, 2]
    assert dfg.node(1) is b


def test_edges_indexed_both_ways():
    dfg, (a, b, c) = make_chain()
    assert dfg.successors(a.node_id) == [b.node_id]
    assert dfg.predecessors(c.node_id) == [b.node_id]
    assert len(dfg.out_edges(a.node_id)) == 1
    assert len(dfg.in_edges(b.node_id)) == 1


def test_compute_memory_split():
    dfg, _ = make_chain()
    assert len(dfg.compute_nodes) == 1
    assert len(dfg.memory_nodes) == 2


def test_validate_accepts_chain():
    dfg, _ = make_chain()
    dfg.validate()


def test_validate_rejects_distance_zero_cycle():
    dfg = DFG("cyc")
    a = dfg.add_node(Opcode.ADD, const=0)
    b = dfg.add_node(Opcode.ADD, const=0)
    dfg.add_edge(a, b, operand_index=0)
    dfg.add_edge(b, a, operand_index=0)
    with pytest.raises(DFGError):
        dfg.validate()


def test_recurrence_cycle_is_legal():
    dfg = DFG("acc")
    a = dfg.add_node(Opcode.ADD, const=1)
    dfg.add_edge(a, a, operand_index=0, distance=1)
    dfg.validate()


def test_double_fed_operand_rejected():
    dfg = DFG("dup")
    a = dfg.add_node(Opcode.ADD, const=0)
    b = dfg.add_node(Opcode.ADD, const=0)
    c = dfg.add_node(Opcode.ADD)
    dfg.add_edge(a, c, operand_index=0)
    dfg.add_edge(b, c, operand_index=0)
    with pytest.raises(DFGError):
        dfg.validate()


def test_missing_operand_without_const_rejected():
    dfg = DFG("missing")
    a = dfg.add_node(Opcode.ADD, const=0)
    c = dfg.add_node(Opcode.ADD)    # no const, will get only one input
    dfg.add_edge(a, c, operand_index=0)
    with pytest.raises(DFGError):
        dfg.validate()


def test_bad_operand_slot_rejected():
    dfg, (a, b, c) = make_chain()
    with pytest.raises(DFGError):
        dfg.add_edge(a, c, operand_index=1)   # STORE has arity 1


def test_ordering_edge_bypasses_arity():
    dfg, (a, b, c) = make_chain()
    edge = dfg.add_edge(c, a, operand_index=ORDERING, distance=1)
    assert edge.is_ordering
    dfg.validate()
    assert len(dfg.data_edges) == 2
    assert len(dfg.edges) == 3


def test_memory_node_requires_access():
    dfg = DFG("bad")
    with pytest.raises(ValueError):
        dfg.add_node(Opcode.LOAD)


def test_compute_node_rejects_access():
    dfg = DFG("bad")
    with pytest.raises(ValueError):
        dfg.add_node(Opcode.ADD, access=AffineAccess("x"))


def test_iteration_indices_row_major():
    dfg = DFG("it", loop_dims=2, trip_counts=(3, 4))
    assert dfg.iterations == 12
    assert dfg.iteration_indices(0) == (0, 0)
    assert dfg.iteration_indices(5) == (1, 1)
    assert dfg.iteration_indices(11) == (2, 3)


def test_affine_access_addressing():
    access = AffineAccess("A", base=2, coeffs=(4, 1))
    assert access.address((0, 0)) == 2
    assert access.address((1, 3)) == 9
    assert "A[" in access.describe()


def test_arrays_read_written():
    dfg, _ = make_chain()
    assert dfg.arrays_read() == {"x"}
    assert dfg.arrays_written() == {"y"}


def test_subgraph_edges():
    dfg, (a, b, c) = make_chain()
    inner = dfg.subgraph_edges({a.node_id, b.node_id})
    assert len(inner) == 1 and inner[0].src == a.node_id


# ---------------------------------------------------------------------------
# Strongly connected components
# ---------------------------------------------------------------------------
def _reachable(edges, start):
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for src, dst in edges:
            if src == node and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                           st.integers(0, max(n - 1, 0))),
                 max_size=3 * n))))
def test_scc_matches_mutual_reachability(graph):
    size, edges = graph
    if size == 0:
        edges = []
    nodes = range(size)
    components = strongly_connected_components(nodes, edges)
    reach = {node: _reachable(edges, node) for node in nodes}
    expected = {
        frozenset(other for other in nodes
                  if other in reach[node] and node in reach[other])
        for node in nodes
    }
    assert sorted(map(sorted, components)) == sorted(map(sorted, expected))
    # Reverse topological order: no edge leads to a later component.
    position = {node: index for index, component in enumerate(components)
                for node in component}
    assert all(position[src] >= position[dst] for src, dst in edges)


def test_scc_survives_deep_chains():
    size = 5000
    edges = [(i, i + 1) for i in range(size - 1)] + [(size - 1, 0)]
    assert strongly_connected_components(range(size), edges) \
        == [set(range(size))]
