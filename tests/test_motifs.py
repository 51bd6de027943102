"""Tests for motif types, pattern matching, and Algorithm 1."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MotifError
from repro.frontend import compile_kernel
from repro.ir.builder import DFGBuilder
from repro.ir.ops import Opcode
from repro.motifs import (
    Motif, MotifKind, build_hierarchy, generate_motifs, match_kind,
)
from repro.motifs.hierarchy import split_group_cycles
from repro.motifs.patterns import find_motif_for_node
from repro.motifs.types import MOTIF_SIZE


def chain_dfg(n_compute=6):
    """load -> add -> add -> ... -> store."""
    b = DFGBuilder("chain", trip_counts=(8,))
    prev = b.load("x", coeffs=(1,))
    for _ in range(n_compute):
        prev = b.op(Opcode.ADD, prev, const=1)
    b.store("y", prev, coeffs=(1,))
    return b.build()


def tree_dfg():
    """Four loads reduced by an add tree (fan-in shapes)."""
    b = DFGBuilder("tree", trip_counts=(8,))
    loads = [b.load(f"x{i}", coeffs=(1,)) for i in range(4)]
    a = b.op(Opcode.ADD, loads[0], loads[1])
    c = b.op(Opcode.ADD, loads[2], loads[3])
    root = b.op(Opcode.ADD, a, c)
    b.store("y", root, coeffs=(1,))
    return b.build()


def fanout_dfg():
    """One producer feeding two consumers."""
    b = DFGBuilder("fan", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    p = b.op(Opcode.MUL, x, const=3)
    c1 = b.op(Opcode.ADD, p, const=1)
    c2 = b.op(Opcode.SUB, p, const=1)
    b.store("y1", c1, coeffs=(1,))
    b.store("y2", c2, coeffs=(1,))
    return b.build()


# ---------------------------------------------------------------------------
# Motif type invariants
# ---------------------------------------------------------------------------
def test_motif_size_enforced():
    with pytest.raises(MotifError):
        Motif(MotifKind.FAN_IN, (1, 2))


def test_motif_distinct_nodes_enforced():
    with pytest.raises(MotifError):
        Motif(MotifKind.UNICAST, (1, 1, 2))


def test_validate_against_checks_edges():
    dfg = chain_dfg(3)
    compute = [n.node_id for n in dfg.compute_nodes]
    good = Motif(MotifKind.UNICAST, tuple(compute))
    good.validate_against(dfg)
    bad = Motif(MotifKind.FAN_OUT, tuple(compute))
    with pytest.raises(MotifError):
        bad.validate_against(dfg)


def test_memory_nodes_rejected_from_motifs():
    dfg = chain_dfg(2)
    load_id = dfg.memory_nodes[0].node_id
    compute = [n.node_id for n in dfg.compute_nodes]
    motif = Motif(MotifKind.PAIR, (load_id, compute[0]))
    with pytest.raises(MotifError):
        motif.validate_against(dfg)


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------
def test_unicast_found_in_chain():
    dfg = chain_dfg(3)
    compute = {n.node_id for n in dfg.compute_nodes}
    motif = find_motif_for_node(dfg, min(compute), set(compute))
    assert motif is not None and motif.kind is MotifKind.UNICAST


def test_fan_in_found_in_tree():
    dfg = tree_dfg()
    compute = {n.node_id for n in dfg.compute_nodes}
    root = max(compute)     # the final add
    motif = find_motif_for_node(dfg, root, set(compute))
    assert motif is not None
    assert motif.kind in (MotifKind.FAN_IN, MotifKind.UNICAST)


def test_fan_out_found():
    dfg = fanout_dfg()
    compute = {n.node_id for n in dfg.compute_nodes}
    producer = min(compute)
    motif = find_motif_for_node(dfg, producer, set(compute))
    assert motif is not None


def test_no_motif_for_isolated_node():
    b = DFGBuilder("iso", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    n = b.op(Opcode.ADD, x, const=1)
    b.store("y", n, coeffs=(1,))
    dfg = b.build()
    motif = find_motif_for_node(dfg, n.node_id, {n.node_id})
    assert motif is None


def test_match_kind_classifies_triangle_as_basic():
    b = DFGBuilder("tri", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    n3 = b.op(Opcode.ADD, x, const=0)
    n1 = b.op(Opcode.ADD, n3, const=1)
    n2 = b.op(Opcode.ADD, n1, n3)
    b.store("y", n2, coeffs=(1,))
    dfg = b.build()
    # n3->n1, n3->n2, n1->n2: the acyclic triangle
    kind = match_kind(dfg, (n1.node_id, n2.node_id, n3.node_id))
    assert kind in (MotifKind.UNICAST, MotifKind.FAN_IN, MotifKind.FAN_OUT)


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------
def test_chain_fully_covered():
    dfg = chain_dfg(6)
    result = generate_motifs(dfg, seed=1)
    assert len(result.covered_nodes) == 6
    assert not result.standalone


def test_chain_of_seven_leaves_one_standalone_or_pair():
    dfg = chain_dfg(7)
    result = generate_motifs(dfg, seed=1, make_pairs=False)
    assert len(result.covered_nodes) == 6
    assert len(result.standalone) == 1


def test_pairs_pick_up_leftovers():
    dfg = chain_dfg(8)
    result = generate_motifs(dfg, seed=1, make_pairs=True)
    assert len(result.covered_nodes) == 6
    # remaining two nodes form a pair
    assert any(m.kind is MotifKind.PAIR for m in result.motifs)
    assert not result.standalone


def test_generation_is_deterministic_per_seed():
    dfg = tree_dfg()
    r1 = generate_motifs(dfg, seed=7)
    r2 = generate_motifs(dfg, seed=7)
    assert r1.motifs == r2.motifs


def test_generation_validates_itself():
    dfg = tree_dfg()
    generate_motifs(dfg, seed=3).validate()


def test_realistic_kernel_coverage():
    source = """
    #pragma plaid
    for (i = 0; i < 8; i++) {
      for (j = 0; j < 8; j++) {
        y[i] += A[i][j] * x[j];
        z[j] = (x[j] >> 2) + 1;
      }
    }
    """
    dfg = compile_kernel(source, array_shapes={"A": (8, 8)}, unroll=2)
    result = generate_motifs(dfg, seed=0)
    # This kernel's best 3-node coverage is 3 of 8 compute nodes (one
    # fan-in over the multiplies); pairs pick up most of the rest.
    assert result.coverage >= 0.3
    assert len(result.collective_nodes) >= 6
    histogram = result.kind_histogram()
    assert sum(histogram.values()) == len(result.motifs)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 999))
def test_partition_property_on_chains(n, seed):
    dfg = chain_dfg(n)
    result = generate_motifs(dfg, seed=seed)
    result.validate()   # disjointness + partition invariants
    # 3-node motif count can never exceed floor(n/3).
    three = [m for m in result.motifs if m.size == 3]
    assert len(three) <= n // 3


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------
def test_hierarchy_covers_all_nodes():
    dfg = tree_dfg()
    hierarchy = build_hierarchy(dfg, seed=0)
    assert set(hierarchy.node_to_group) == {n.node_id for n in dfg.nodes}


def test_hierarchy_edge_partition():
    dfg = fanout_dfg()
    hierarchy = build_hierarchy(dfg, seed=0)
    hierarchy.validate()
    internal = sum(
        len(hierarchy.internal_edges(i)) for i in range(len(hierarchy.groups))
    )
    inter_data = [h for h in hierarchy.inter_edges if not h.edge.is_ordering]
    assert internal + len(inter_data) == len(dfg.data_edges)


def test_dependency_order_respects_dataflow():
    dfg = chain_dfg(6)
    hierarchy = build_hierarchy(dfg, seed=0)
    order = hierarchy.dependency_order()
    position = {g: i for i, g in enumerate(order)}
    for hedge in hierarchy.inter_edges:
        if hedge.edge.distance == 0 and not hedge.edge.is_ordering:
            assert position[hedge.src_group] < position[hedge.dst_group]


def crossed_dfg():
    """Two three-node chains that feed each other: with the chains as
    unicast motifs (2, 7, 8) and (3, 6, 9), edges 3 -> 8 and 7 -> 9 make
    each motif a predecessor of the other."""
    b = DFGBuilder("crossed", trip_counts=(4,))
    x0 = b.load("in0", coeffs=(1,))
    x1 = b.load("in1", coeffs=(1,))
    n2 = b.op(Opcode.OR, x0, x1)
    n3 = b.op(Opcode.MUL, x0, x0)
    n4 = b.op(Opcode.MAX, x1, const=100)
    n5 = b.op(Opcode.OR, n4, const=69)
    n6 = b.op(Opcode.AND, n3, n4)
    n7 = b.op(Opcode.OR, n2, const=65)
    n8 = b.op(Opcode.OR, n7, n3)
    n9 = b.op(Opcode.SUB, n7, n6)
    for index, sink in enumerate((n5, n8, n9)):
        b.store(f"out{index}", sink, coeffs=(1,))
    return b.build()


def test_split_group_cycles_splits_mutually_dependent_motifs():
    dfg = crossed_dfg()
    crossed = [Motif(MotifKind.UNICAST, (3, 6, 9)),
               Motif(MotifKind.UNICAST, (2, 7, 8)),
               Motif(MotifKind.PAIR, (4, 5))]
    covered = {n for motif in crossed for n in motif.nodes}
    groups = crossed + [Motif(MotifKind.SINGLETON, (node.node_id,))
                        for node in dfg.nodes if node.node_id not in covered]
    split = split_group_cycles(dfg, groups)
    assert Motif(MotifKind.PAIR, (4, 5)) in split
    assert [m for m in split if m.is_collective] == [crossed[2]]
    assert sorted(n for m in split for n in m.nodes) \
        == sorted(node.node_id for node in dfg.nodes)
    # An acyclic decomposition is returned unchanged.
    assert split_group_cycles(dfg, split) == split


@pytest.mark.parametrize("seed", [0, 11, 23, 35])
def test_hierarchy_group_graph_is_acyclic(seed):
    dfg = crossed_dfg()
    hierarchy = build_hierarchy(dfg, seed=seed)
    position = {g: i for i, g in enumerate(hierarchy.dependency_order())}
    for edge in dfg.edges:
        if edge.distance == 0:
            src = hierarchy.group_of(edge.src)
            dst = hierarchy.group_of(edge.dst)
            assert src == dst or position[src] < position[dst]


def test_crossed_motifs_map_and_verify_on_plaid():
    """Once split, the crossed graph maps at a small II and its simulation
    matches the reference interpreter."""
    from repro.arch import make_plaid
    from repro.ir.interpreter import DFGInterpreter
    from repro.mapping import PlaidMapper
    from repro.sim import CGRASimulator

    dfg = crossed_dfg()
    mapping = PlaidMapper(seed=5).map(dfg, make_plaid())
    mapping.validate()
    assert mapping.ii <= 4
    memory = DFGInterpreter(dfg).prepare_memory(fill=11)
    report = CGRASimulator(mapping).run(memory, iterations=4)
    assert report.verified, report.mismatches[:3]


def test_memory_nodes_are_singletons():
    dfg = chain_dfg(3)
    hierarchy = build_hierarchy(dfg, seed=0)
    for node in dfg.memory_nodes:
        group = hierarchy.groups[hierarchy.group_of(node.node_id)]
        assert group.kind is MotifKind.SINGLETON
