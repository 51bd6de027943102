"""Machinery shared by the PathFinder, SA, and Plaid mappers.

All mappers work with the same primitives: a *placement* (node -> (fu,
absolute cycle)) maintained inside an MRRG, timing-feasibility checks
against already-placed neighbours, and full or incremental edge routing.
"""

from __future__ import annotations

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.ir.analysis import critical_path_length, topological_order
from repro.ir.graph import DFG, strongly_connected_components
from repro.mapping.router import (
    fu_hop_table, route_edge, transport_latency_table,
)


def schedule_horizon(dfg: DFG, ii: int) -> int:
    """Upper bound on absolute schedule cycles the mappers explore."""
    return critical_path_length(dfg) + 3 * ii + 8


def modulo_asap(dfg: DFG, ii: int) -> dict[int, int] | None:
    """Recurrence-consistent earliest start times at a given II.

    Bellman-Ford longest-path fixpoint of ``sigma(dst) >= sigma(src) + 1
    - II * distance`` over all edges (data and ordering) with unit
    latencies.  Nodes on recurrence circuits are pushed late enough that a
    placement starting at these times can close every loop within II
    cycles; None when the II is below RecMII (no fixpoint).
    """
    sigma = {node.node_id: 0 for node in dfg.nodes}
    edges = [(e.src, e.dst, 1 - ii * e.distance) for e in dfg.edges]
    for _ in range(dfg.num_nodes + 1):
        changed = False
        for src, dst, weight in edges:
            bound = sigma[src] + weight
            if bound > sigma[dst]:
                sigma[dst] = bound
                changed = True
        if not changed:
            return sigma
    return None


def recurrence_nodes(dfg: DFG) -> set[int]:
    """Nodes on loop-carried dependence circuits (SCCs of the full edge
    graph plus self-recurrences)."""
    members: set[int] = set()
    for component in strongly_connected_components(
            (node.node_id for node in dfg.nodes),
            ((edge.src, edge.dst) for edge in dfg.edges)):
        if len(component) > 1:
            members.update(component)
    for edge in dfg.edges:
        if edge.src == edge.dst:
            members.add(edge.src)
    return members


def placement_order(dfg: DFG) -> list[int]:
    """Topological placement order (producers before consumers)."""
    return topological_order(dfg)


def edge_indices_by_node(dfg: DFG) -> dict[int, list[int]]:
    """node id -> indices (into dfg.edges) of all incident edges."""
    incident: dict[int, list[int]] = {node.node_id: [] for node in dfg.nodes}
    for index, edge in enumerate(dfg.edges):
        incident[edge.src].append(index)
        if edge.dst != edge.src:
            incident[edge.dst].append(index)
    return incident


def timing_feasible(dfg: DFG, arch: Architecture, ii: int,
                    placement: dict[int, tuple[int, int]],
                    node_id: int, fu_id: int, cycle: int) -> bool:
    """Can ``node_id`` sit at (fu, cycle) given its placed neighbours?

    Data edges need span >= the fabric's minimum transport latency;
    ordering edges need span >= 1.  Spans include the modulo offset
    ``distance * II`` for loop-carried dependences.
    """
    latency = transport_latency_table(arch)
    for edge in dfg.in_edges(node_id):
        if edge.src == node_id:
            src_fu, src_cycle = fu_id, cycle
        elif edge.src in placement:
            src_fu, src_cycle = placement[edge.src]
        else:
            continue
        arrival = cycle + edge.distance * ii
        needed = 1 if edge.is_ordering else latency[src_fu][fu_id]
        if arrival - src_cycle < needed:
            return False
    for edge in dfg.out_edges(node_id):
        if edge.dst == node_id:
            continue   # handled above (self edge appears in in_edges too)
        if edge.dst not in placement:
            continue
        dst_fu, dst_cycle = placement[edge.dst]
        arrival = dst_cycle + edge.distance * ii
        needed = 1 if edge.is_ordering else latency[fu_id][dst_fu]
        if arrival - cycle < needed:
            return False
    return True


def _node_edge_tables(dfg: DFG, ii: int):
    """Per-node edge tuples for list scheduling at one II.

    Returns ``(ins, outs, loops, neighbours)``, each keyed by node:
    ``(source, distance * II, is_ordering)`` per in-edge and ``(sink,
    distance * II, is_ordering)`` per out-edge (self edges excluded),
    ``(distance * II, is_ordering)`` per self edge, and the set of other
    endpoints of all of them.
    """
    node_ids = [node.node_id for node in dfg.nodes]
    ins: dict[int, list] = {node_id: [] for node_id in node_ids}
    outs: dict[int, list] = {node_id: [] for node_id in node_ids}
    loops: dict[int, list] = {node_id: [] for node_id in node_ids}
    neighbours: dict[int, set[int]] = {node_id: set() for node_id in node_ids}
    for edge in dfg.edges:
        delay = edge.distance * ii
        if edge.src == edge.dst:
            loops[edge.src].append((delay, edge.is_ordering))
            continue
        ins[edge.dst].append((edge.src, delay, edge.is_ordering))
        outs[edge.src].append((edge.dst, delay, edge.is_ordering))
        neighbours[edge.dst].add(edge.src)
        neighbours[edge.src].add(edge.dst)
    return ins, outs, loops, neighbours


def initial_placement(dfg: DFG, arch: Architecture, mrrg: MRRG,
                      rng, circuit_lateness: int = 0
                      ) -> dict[int, tuple[int, int]] | None:
    """List-schedule every node onto the MRRG; None when stuck.

    Nodes go in topological order; each picks the compatible FU / earliest
    cycle minimizing (cycle, distance to neighbours), breaking ties
    randomly so restarts explore different placements.

    ``circuit_lateness`` delays recurrence-circuit nodes past their
    modulo-ASAP time, buying transport headroom for the feed-in logic —
    mappers sweep it across restarts when circuits are hard to close.

    Per FU the feasible cycles form one window: placed producers set its
    start, placed consumers (loop-carried edges to earlier nodes) its end,
    and a self edge either fits every cycle or none.  The first free cycle
    in the window is the one :func:`timing_feasible` would accept first.
    """
    placement: dict[int, tuple[int, int]] = {}
    ii = mrrg.ii
    horizon = schedule_horizon(dfg, ii)
    asap = modulo_asap(dfg, ii)
    if asap is None:
        return None     # II below the recurrence bound
    late_nodes = recurrence_nodes(dfg) if circuit_lateness else set()
    latency = transport_latency_table(arch)
    hops = fu_hop_table(arch)
    fu_free = mrrg.fu_free
    ins, outs, loops, neighbours = _node_edge_tables(dfg, ii)
    for node_id in placement_order(dfg):
        candidates = list(arch.fus_supporting(dfg.node(node_id).op))
        rng.shuffle(candidates)
        producers = [(placement[src], delay, ordering)
                     for src, delay, ordering in ins[node_id]
                     if src in placement]
        consumers = [(placement[dst], delay, ordering)
                     for dst, delay, ordering in outs[node_id]
                     if dst in placement]
        near = [placement[other][0] for other in neighbours[node_id]
                if other in placement]
        best: tuple[int, int] | None = None
        best_key: tuple[int, int] | None = None
        node_asap = asap[node_id]
        if node_id in late_nodes:
            node_asap += circuit_lateness
        for fu in candidates:
            fu_id = fu.fu_id
            row = latency[fu_id]
            earliest = node_asap
            for (src_fu, src_cycle), delay, ordering in producers:
                needed = 1 if ordering else latency[src_fu][fu_id]
                earliest = max(earliest, src_cycle + needed - delay)
            stop = horizon
            for (dst_fu, dst_cycle), delay, ordering in consumers:
                needed = 1 if ordering else row[dst_fu]
                stop = min(stop, dst_cycle + delay - needed + 1)
            for delay, ordering in loops[node_id]:
                if delay < (1 if ordering else row[fu_id]):
                    stop = 0
            for cycle in range(max(earliest, 0), stop):
                if not fu_free(fu_id, cycle):
                    continue
                hop_row = hops[fu_id]
                key = (cycle, sum(hop_row[other] for other in near))
                if best_key is None or key < best_key:
                    best = (fu_id, cycle)
                    best_key = key
                break   # first feasible cycle on this FU is its best
        if best is None:
            return None
        placement[node_id] = best
        mrrg.place_node(node_id, best[0], best[1])
    return placement


def route_one_edge(dfg: DFG, mrrg: MRRG,
                   placement: dict[int, tuple[int, int]], index: int,
                   history: dict | None = None) -> Route | None:
    """Route one data edge (by index) of a placement; None when stuck."""
    edge = dfg.edges[index]
    src_fu, src_cycle = placement[edge.src]
    dst_fu, dst_cycle = placement[edge.dst]
    arrival = dst_cycle + edge.distance * mrrg.ii
    return route_edge(mrrg, edge.src, src_fu, src_cycle,
                      dst_fu, arrival, history=history)


def route_all_edges(dfg: DFG, mrrg: MRRG,
                    placement: dict[int, tuple[int, int]],
                    history: dict | None = None
                    ) -> tuple[dict[int, Route], list[int]]:
    """Route every data edge; returns (routes, unroutable edge indices)."""
    routes: dict[int, Route] = {}
    failures: list[int] = []
    for index, edge in enumerate(dfg.edges):
        if edge.is_ordering:
            continue
        route = route_one_edge(dfg, mrrg, placement, index,
                               history=history)
        if route is None:
            failures.append(index)
        else:
            routes[index] = route
    return routes, failures


def mapping_cost(mrrg: MRRG, routes: dict[int, Route],
                 unrouted: int) -> float:
    """Scalar objective: overuse dominates, then unrouted, then wirelength."""
    steps = sum(len(route.steps) for route in routes.values())
    return 1000.0 * unrouted + 100.0 * mrrg.total_overuse() + 1.0 * steps
