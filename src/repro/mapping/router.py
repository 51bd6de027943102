"""Time-expanded Dijkstra routing over the MRRG (Algorithm 2, line 10).

A route carries one producer's value from its execution cycle to one
consumer's execution cycle through places (register sites) and moves
(wires), charging MRRG resources along the way.  Costs are congestion-aware
via :meth:`MRRG.step_cost`; segments already charged by the same net are
free, which makes fanout nets share wires naturally.

:func:`route_edge` is a thin dispatcher: by default it runs the compiled
integer-state search (:mod:`repro.mapping.routecore`), falling back to
the interpreted loop here — kept as :func:`route_edge_reference`, the
conformance oracle — when the reference engine is selected
(``REPRO_ROUTING_ENGINE=reference`` / :func:`set_routing_engine`) or the
call carries history the core cannot index.  The two implementations are
bit-identical by invariant (``tests/test_routecore.py``).  Either way,
failed calls (span out of range, no path) tick
:data:`repro.mapping.routecore.ROUTING` so mapping stats and failure
messages can surface them.
"""

from __future__ import annotations

import heapq

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route, RouteStep
from repro.arch.topology import manhattan
from repro.mapping import routecore
from repro.mapping.routecore import (
    MAX_TRANSPORT_CYCLES, ROUTING, RoutingHistory, routing_engine,
    set_routing_engine,
)

__all__ = [
    "MAX_TRANSPORT_CYCLES", "ROUTING", "RoutingHistory", "fu_hop_table",
    "min_transport_latency", "route_cost", "route_edge",
    "route_edge_reference", "router_adjacency", "routing_engine",
    "set_routing_engine", "transport_latency_table",
]


def fu_hop_table(arch: Architecture) -> tuple[tuple[int, ...], ...]:
    """Flattened FU x FU mesh distance (tile hops), built once per fabric.

    The placement heuristics score candidates by wire length to placed
    neighbours; this table is that distance without a per-query
    ``manhattan`` call.
    """
    table = getattr(arch, "_fu_hop_table", None)
    if table is None:
        tiles = [fu.tile for fu in arch.fus]
        cols = arch.cols
        table = tuple(
            tuple(manhattan(src_tile, dst_tile, cols) for dst_tile in tiles)
            for src_tile in tiles
        )
        arch._fu_hop_table = table
    return table


def transport_latency_table(arch: Architecture) -> tuple[tuple[int, ...], ...]:
    """Flattened FU x FU minimum-latency matrix, built once per fabric.

    The placement heuristics and candidate estimators index it directly
    (``table[src_fu][dst_fu]``); :func:`min_transport_latency` is the
    same lookup behind a call.
    """
    table = getattr(arch, "_transport_latency_table", None)
    if table is None:
        if arch.style == "plaid":
            def latency(hops: int) -> int:
                return 1 if hops == 0 else 1 + hops
        else:
            def latency(hops: int) -> int:
                return max(1, hops)
        table = tuple(
            tuple(latency(hops) for hops in row)
            for row in fu_hop_table(arch)
        )
        arch._transport_latency_table = table
    return table


def min_transport_latency(arch: Architecture, src_fu: int,
                          dst_fu: int) -> int:
    """Smallest producer-to-consumer latency the fabric allows.

    Spatio-temporal mesh: 1 cycle for the same or an adjacent tile, one
    more per extra hop.  Plaid: 1 cycle within a PCU, 1 + PCU hops across
    PCUs (the extra cycle is the local-to-global staging hop).
    """
    return transport_latency_table(arch)[src_fu][dst_fu]


def router_adjacency(arch: Architecture
                     ) -> tuple[tuple[tuple[int, tuple[str, str]], ...], ...]:
    """Per-place outgoing transitions, flattened for the Dijkstra loop.

    ``adjacency[place]`` is a tuple of ``(dst_place, ("res", name))``
    pairs in the fabric's move-declaration order — the same order
    :meth:`Architecture.moves_from` yields, so search tie-breaking is
    unchanged.  Built once per fabric and shared by every MRRG over it.
    """
    adjacency = getattr(arch, "_router_adjacency", None)
    if adjacency is None:
        outgoing: list[list[tuple[int, tuple[str, str]]]] = [
            [] for _ in arch.places
        ]
        for move in arch.moves:
            outgoing[move.src].append((move.dst, ("res", move.resource)))
        adjacency = tuple(tuple(entries) for entries in outgoing)
        arch._router_adjacency = adjacency
    return adjacency


#: Sentinel distinguishing "compiled path not taken" from a routing
#: failure (which is a legitimate None result).
_UNROUTED = object()


def route_edge(mrrg: MRRG, net: int, src_fu: int, depart_cycle: int,
               dst_fu: int, arrive_cycle: int,
               history: dict | None = None,
               commit: bool = True) -> Route | None:
    """Route a value produced at (src_fu, depart_cycle) to be consumed at
    (dst_fu, arrive_cycle); returns None when no path exists.

    ``arrive_cycle`` is in absolute time: inter-iteration edges pass
    ``consumer_cycle + distance * II``.  With ``commit`` the route's
    charges are applied to the MRRG immediately.

    Dispatches to the compiled core (or its generated-C twin under the
    ``native`` engine) when ``history`` is indexable by it (``None`` or
    a :class:`~repro.mapping.routecore.RoutingHistory` bound to this
    MRRG's core); plain-dict history always takes the reference path.
    """
    ROUTING.calls += 1
    engine = routecore.active_engine()
    route = _UNROUTED
    if engine != "reference":
        core = mrrg._core
        if core is None:
            core = routecore.ensure_core(mrrg)
        if core is not None:
            if history is None:
                hist = core.zero_hist
            elif isinstance(history, RoutingHistory) \
                    and history.core is core:
                hist = history.array
            else:
                hist = None
            if hist is not None:
                if engine == "native":
                    from repro.native.routegen import route_edge_native
                    route = route_edge_native(
                        mrrg, core, net, src_fu, depart_cycle,
                        dst_fu, arrive_cycle, hist, commit)
                else:
                    route = routecore.route_edge_compiled(
                        mrrg, core, net, src_fu, depart_cycle,
                        dst_fu, arrive_cycle, hist, commit)
    if route is _UNROUTED:
        route = route_edge_reference(mrrg, net, src_fu, depart_cycle,
                                     dst_fu, arrive_cycle, history, commit)
    if route is None:
        ROUTING.failures += 1
    return route


def route_edge_reference(mrrg: MRRG, net: int, src_fu: int,
                         depart_cycle: int, dst_fu: int, arrive_cycle: int,
                         history: dict | None = None,
                         commit: bool = True) -> Route | None:
    """The interpreted Dijkstra — the compiled core's conformance oracle.

    Bit-identical to :func:`routecore.route_edge_compiled` by invariant;
    benchmarks and conformance tests call it (or select it process-wide
    via :func:`set_routing_engine`) to check and price the compiled path.
    """
    arch = mrrg.arch
    span = arrive_cycle - depart_cycle
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return None

    # Free bypass path (Plaid motif compute unit, producer -> right ALU).
    if (src_fu, dst_fu) in arch.bypass_pairs and span == 1:
        route = Route(net=net, steps=(), src_fu=src_fu, dst_fu=dst_fu,
                      depart_cycle=depart_cycle, arrive_cycle=arrive_cycle,
                      bypass=True)
        if commit:
            mrrg.commit_route(route)
        return route

    start_place = arch.produce_place[src_fu]
    goals = arch.consume_places[dst_fu]
    start_cycle = depart_cycle + 1

    # Dijkstra over (place, cycle).
    start_cost = mrrg.step_cost(net, ("place", start_place), start_cycle,
                                history)
    frontier: list[tuple[float, int, int]] = [
        (start_cost, start_place, start_cycle)
    ]
    best: dict[tuple[int, int], float] = {(start_place, start_cycle): start_cost}
    parents: dict[tuple[int, int],
                  tuple[int, int, tuple[str, str] | None]] = {}

    # The consume-side wire charge differs per goal place (a congested
    # remote read can cost far more than landing locally), so goals are
    # compared on cost *including* their read charge.
    adjacency = router_adjacency(arch)
    goal_state: tuple[int, int] | None = None
    goal_cost = float("inf")
    while frontier:
        cost, place, cycle = heapq.heappop(frontier)
        if cost >= goal_cost:
            break          # no remaining state can beat the best goal
        if cost > best.get((place, cycle), float("inf")):
            continue
        if cycle == arrive_cycle:
            if place in goals:
                read = goals[place]
                read_cost = 0.0 if read is None else mrrg.step_cost(
                    net, ("res", read), arrive_cycle, history)
                if cost + read_cost < goal_cost:
                    goal_cost = cost + read_cost
                    goal_state = (place, cycle)
            continue
        # Hold in place for a cycle.
        _push(mrrg, net, history, best, frontier, parents,
              place, cycle, place, cycle + 1, cost, None)
        # Moves to connected places.
        for dst_place, move_resource in adjacency[place]:
            _push(mrrg, net, history, best, frontier, parents,
                  place, cycle, dst_place, cycle + 1, cost, move_resource)

    if goal_state is None:
        return None

    # Reconstruct occupancy/move steps.
    steps: list[RouteStep] = []
    places: list[tuple[int, int]] = []
    state = goal_state
    while True:
        place, cycle = state
        steps.append(RouteStep("occupy", ("place", place), cycle))
        places.append((place, cycle))
        parent = parents.get(state)
        if parent is None:
            break
        prev_place, prev_cycle, move_resource = parent
        if move_resource is not None:
            steps.append(RouteStep("move", move_resource, prev_cycle))
        state = (prev_place, prev_cycle)
    steps.reverse()
    places.reverse()

    # Consume-side wire charge.
    read_resource = goals[goal_state[0]]
    if read_resource is not None:
        steps.append(RouteStep("read", ("res", read_resource), arrive_cycle))

    route = Route(
        net=net,
        steps=tuple(steps),
        src_fu=src_fu,
        dst_fu=dst_fu,
        depart_cycle=depart_cycle,
        arrive_cycle=arrive_cycle,
        places=tuple(places),
    )
    if commit:
        mrrg.commit_route(route)
    return route


def _push(mrrg: MRRG, net: int, history, best, frontier, parents,
          place: int, cycle: int, next_place: int, next_cycle: int,
          cost: float, move_resource: tuple[str, str] | None) -> bool:
    """Relax one Dijkstra transition; returns True when it improved.

    ``move_resource`` is the ``("res", name)`` key the transfer charges
    (``None`` for a hold); the :class:`RouteStep` itself is materialized
    only during path reconstruction, so the hot loop allocates nothing
    for transitions that don't improve.
    """
    if move_resource is not None:
        move_cost = mrrg.step_cost(net, move_resource, cycle, history)
    else:
        move_cost = 0.0
    occupy_cost = mrrg.step_cost(net, ("place", next_place), next_cycle,
                                 history)
    new_cost = cost + move_cost + occupy_cost
    key = (next_place, next_cycle)
    if new_cost < best.get(key, float("inf")):
        best[key] = new_cost
        parents[key] = (place, cycle, move_resource)
        heapq.heappush(frontier, (new_cost, next_place, next_cycle))
        return True
    return False


def route_cost(route: Route) -> float:
    """Resource units a committed route consumes (for objectives)."""
    return float(len(route.steps))
