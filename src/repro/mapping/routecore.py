"""Compiled routing core: integer-state Dijkstra over flat cost arrays.

:func:`repro.mapping.router.route_edge` is the hottest loop left in the
mapper: the interpreted search walks ``(place, cycle)`` tuple keys and
pays two :meth:`~repro.arch.mrrg.MRRG.step_cost` calls — each a tuple
construction plus several dict probes — per relaxed transition.  This
module compiles everything that is invariant per *(architecture
signature, II)* into a :class:`RouteCore` once, following the repo's
engine pattern (PR 2 mapping engine, PR 3 compiled simulator):

* every routable resource — ``("place", p)`` and ``("res", name)`` — gets
  a dense integer id (*rid*); congestion state lives in one flat
  ``cost_base[rid * II + slot]`` float array that
  :meth:`MRRG._charge`/:meth:`MRRG._discharge` maintain incrementally in
  lock-step with the authoritative usage dicts;
* search states are single integers ``place * MAX_TRANSPORT_CYCLES +
  relative_cycle``; ``dist``/``parent`` are preallocated flat arrays
  reset by epoch stamping, so a search allocates nothing but its heap
  entries;
* per consumer FU, ``reach[fu][place]`` is the fewest transitions from a
  place to one of the FU's consume places (reverse BFS over the
  adjacency).  A state whose reach exceeds the cycles it has left is
  dropped at push time: neither it nor any descendant can arrive in
  time, and every state that can has a parent that can, so the pruned
  search pops the surviving states in the unpruned order;
* the route found carries its commit plan, built from per-core
  ``(resource, slot)`` key and capacity tables while the path is
  reconstructed, so committing it never has to look a resource up;
* PathFinder's negotiated-congestion history is a
  :class:`RoutingHistory`: a ``(resource, slot)`` dict (the reference
  view) and a flat ``hist[rid * II + slot]`` array updated together.

**Invariant:** :func:`route_edge_compiled` is bit-identical to
:func:`repro.mapping.router.route_edge_reference` — same float
arithmetic in the same order, same heap tie-breaking (state ids order
exactly like the reference ``(place, cycle)`` tuples), same goal
selection, same :class:`~repro.arch.mrrg.Route` steps.
``tests/test_routecore.py`` locks this per-route and across whole mapper
searches on the golden grid.

Cores are cached per ``(arch structural key, II)`` — the same keying as
the MRRG pool in :mod:`repro.mapping.engine`, which binds a core to every
MRRG it leases — so structurally equal fabrics share compiled tables.

Env knobs: ``REPRO_ROUTING_ENGINE=compiled|native|reference`` selects
the router implementation process-wide (default ``compiled``; an
invalid value raises a structured :class:`~repro.errors.ConfigError`
naming the valid choices on first use, via :func:`active_engine`).
:func:`set_routing_engine` overrides it at runtime (benchmarks and
conformance tests flip it per run).  ``native`` runs the same search as
generated C (:mod:`repro.native.routegen`), bit-identical to
``compiled`` and falling back to it when no C toolchain is available.
"""

from __future__ import annotations

import ctypes
import heapq
import os

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route, RouteStep
from repro.errors import ConfigError
from repro.utils.signature import arch_structural_key

#: Routing gives up beyond this many cycles of transport (the router
#: re-exports it; defined here so the core can size its state arrays
#: without a circular import).
MAX_TRANSPORT_CYCLES = 64

#: ``RouteCore.reach`` entry of a place that cannot reach the FU's
#: consume places within ``MAX_TRANSPORT_CYCLES`` transitions — larger
#: than the cycles left to any search state, so such states are pruned.
UNREACHABLE = MAX_TRANSPORT_CYCLES

ROUTING_ENGINES = ("compiled", "native", "reference")

ROUTING_ENGINE_ENV = "REPRO_ROUTING_ENGINE"

_env_engine = os.environ.get(ROUTING_ENGINE_ENV, "compiled").strip()
#: The active router implementation; read by the route_edge wrapper on
#: every call so tests/benchmarks can flip it mid-process.
ACTIVE_ENGINE = _env_engine if _env_engine in ROUTING_ENGINES else "compiled"
#: Deferred $REPRO_ROUTING_ENGINE validation: importing with a bad value
#: must not explode (the CLI may be running ``repro engines`` to debug
#: it), but the first actual routing call raises a structured error
#: naming the valid choices instead of silently routing with the default.
ENV_ERROR = None if _env_engine in ROUTING_ENGINES else (
    f"invalid {ROUTING_ENGINE_ENV}={_env_engine!r}: "
    f"valid routing engines are {', '.join(ROUTING_ENGINES)}")


def routing_engine() -> str:
    """The router implementation in effect (no env validation)."""
    return ACTIVE_ENGINE


def active_engine() -> str:
    """The router implementation for this call, validating the env knob.

    Raises :class:`~repro.errors.ConfigError` when
    ``$REPRO_ROUTING_ENGINE`` holds an invalid value — at first use, so
    a bad environment surfaces as one structured message instead of a
    deep traceback (or a silent default) mid-sweep.
    """
    if ENV_ERROR is not None:
        raise ConfigError(ENV_ERROR)
    return ACTIVE_ENGINE


def set_routing_engine(name: str) -> str:
    """Select the router implementation; returns the previous setting.

    ``reference`` also stops :func:`ensure_core` from binding cores to
    new MRRGs, so the interpreted path pays no array bookkeeping —
    exactly the pre-compiled-core behaviour the benchmarks time against.
    An explicit runtime selection supersedes (and clears) a pending
    invalid-environment error.
    """
    global ACTIVE_ENGINE, ENV_ERROR
    if name not in ROUTING_ENGINES:
        raise ValueError(
            f"unknown routing engine '{name}' (one of {ROUTING_ENGINES})")
    previous = ACTIVE_ENGINE
    ACTIVE_ENGINE = name
    ENV_ERROR = None
    return previous


class RoutingCounters:
    """Process-wide routing attempt accounting.

    ``route_edge`` failures (span out of range, no path at the requested
    arrival) used to vanish silently; the engine snapshots these counters
    around each search and surfaces the delta in
    :class:`~repro.mapping.base.MappingStats` and mapping-failure
    messages.
    """

    __slots__ = ("calls", "failures")

    def __init__(self) -> None:
        self.calls = 0
        self.failures = 0

    def reset(self) -> None:
        self.calls = self.failures = 0


ROUTING = RoutingCounters()


class RoutingHistory:
    """PathFinder history kept as a dict and a flat array in lock-step.

    The reference router reads ``history.get((resource, slot), 0.0)``
    (dict semantics); the compiled router reads ``array[rid * II +
    slot]``.  :meth:`add` updates both, so either engine sees identical
    values.  Without a bound core (reference engine) only the dict view
    exists.
    """

    __slots__ = ("core", "array", "table")

    def __init__(self, core: "RouteCore | None" = None) -> None:
        self.core = core
        if core is None:
            self.array = None
        elif ACTIVE_ENGINE == "native":
            # ctypes doubles read zero-copy from the generated C search;
            # item reads/writes behave like a list, so the Python
            # engines consume the same buffer unchanged.
            self.array = (ctypes.c_double * (core.n_rids * core.ii))()
        else:
            self.array = [0.0] * (core.n_rids * core.ii)
        self.table: dict[tuple, float] = {}

    @classmethod
    def for_mrrg(cls, mrrg: MRRG) -> "RoutingHistory":
        """History wired to ``mrrg``'s core (bound on demand)."""
        return cls(ensure_core(mrrg))

    def add(self, resource, slot: int, amount: float) -> None:
        key = (resource, slot)
        value = self.table.get(key, 0.0) + amount
        self.table[key] = value
        if self.array is not None:
            rid = self.core.rid_of.get(resource)
            if rid is not None:
                self.array[rid * self.core.ii + slot] = value

    def get(self, key, default: float = 0.0) -> float:
        """Dict view — what :meth:`MRRG.step_cost` consumes."""
        return self.table.get(key, default)


class RouteCore:
    """Per-(architecture signature, II) compiled routing tables.

    Static state only (plus per-search scratch arrays): the dynamic
    congestion arrays live on each bound :class:`~repro.arch.mrrg.MRRG`
    so pooled MRRGs over the same fabric can share one core.
    """

    def __init__(self, arch: Architecture, ii: int) -> None:
        # Deliberately no reference to ``arch`` is kept: cores live in a
        # process-global cache, and the tables below already carry
        # everything the search needs.
        self.ii = ii
        n_places = len(arch.places)

        # Dense resource ids: places first (rid == place_id), then named
        # wires/ports in first-reference order (moves, then reads).
        rid_of: dict[tuple, int] = {}
        key_of: list[tuple] = []
        for place_id in range(n_places):
            key = ("place", place_id)
            rid_of[key] = place_id
            key_of.append(key)

        def res_rid(name: str) -> int:
            key = ("res", name)
            rid = rid_of.get(key)
            if rid is None:
                rid = len(key_of)
                rid_of[key] = rid
                key_of.append(key)
            return rid

        # Adjacency in arch.moves declaration order — the same order
        # Architecture.moves_from / router_adjacency yield, so search
        # tie-breaking matches the reference exactly.
        outgoing: list[list[tuple[int, int]]] = [[] for _ in range(n_places)]
        for move in arch.moves:
            outgoing[move.src].append((move.dst, res_rid(move.resource)))
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(entries) for entries in outgoing)

        # Goal tables: per consumer FU, a place-indexed row of
        # -1 (not a consume place), -2 (free same-tile read), or the rid
        # of the consume-side wire charge.
        n_fus = len(arch.fus)
        self.produce_place = tuple(
            arch.produce_place[fu_id] for fu_id in range(n_fus))
        goal_rid: list[list[int]] = []
        for fu_id in range(n_fus):
            row = [-1] * n_places
            for place_id, read in arch.consume_places[fu_id].items():
                row[place_id] = -2 if read is None else res_rid(read)
            goal_rid.append(row)
        self.goal_rid = goal_rid
        self.bypass_pairs = frozenset(arch.bypass_pairs)
        self.reach = _reach_rows(arch, n_places)

        self.rid_of = rid_of
        self.key_of = tuple(key_of)
        self.n_rids = len(key_of)
        # Commit-plan tables: capacity per rid, and the MRRG's
        # ``(resource, slot)`` usage key per flat index rid * II + slot.
        self.cap = tuple(
            [arch.place(place_id).capacity for place_id in range(n_places)]
            + [arch.resource_caps.get(name, 1)
               for _kind, name in key_of[n_places:]])
        self.slot_keys = tuple(
            (key, slot) for key in key_of for slot in range(ii))

        flat = self.n_rids * ii
        #: Shared all-zero history for history-free callers (never written).
        self.zero_hist = [0.0] * flat
        #: Template for resetting a bound MRRG's cost_base in place.
        self.ones = [1.0] * flat

        # Per-search scratch, reset by epoch stamping.
        size = n_places * MAX_TRANSPORT_CYCLES
        self._dist = [0.0] * size
        self._stamp = [0] * size
        self._parent_state = [0] * size
        self._parent_move = [0] * size
        self._epoch = 0


def _reach_rows(arch: Architecture, n_places: int) -> list[list[int]]:
    """Per consumer FU, the fewest transitions from each place to one of
    its consume places (``UNREACHABLE`` when none is that close).

    Multi-source BFS backwards over ``arch.moves``; FUs that share a
    consume-place set share one row.
    """
    incoming: list[list[int]] = [[] for _ in range(n_places)]
    for move in arch.moves:
        incoming[move.dst].append(move.src)
    rows: dict[tuple[int, ...], list[int]] = {}
    reach = []
    for fu_id in range(len(arch.fus)):
        goals = tuple(sorted(arch.consume_places[fu_id]))
        row = rows.get(goals)
        if row is None:
            row = [UNREACHABLE] * n_places
            for place_id in goals:
                row[place_id] = 0
            frontier = list(goals)
            depth = 0
            while frontier and depth + 1 < UNREACHABLE:
                depth += 1
                next_frontier = []
                for place_id in frontier:
                    for src in incoming[place_id]:
                        if row[src] == UNREACHABLE:
                            row[src] = depth
                            next_frontier.append(src)
                frontier = next_frontier
            rows[goals] = row
        reach.append(row)
    return reach


#: Core cache keyed like the MRRG pool: (arch structural key, II).
_CORE_CACHE: dict[tuple[str, int], RouteCore] = {}


def route_core_for(arch: Architecture, ii: int) -> RouteCore:
    """The compiled core for (arch, ii) — cached per structural key."""
    key = (arch_structural_key(arch), ii)
    core = _CORE_CACHE.get(key)
    if core is None:
        core = _CORE_CACHE[key] = RouteCore(arch, ii)
    return core


def clear_core_cache() -> None:
    """Drop every cached core (tests that rebuild fabrics use this)."""
    _CORE_CACHE.clear()


def ensure_core(mrrg: MRRG) -> RouteCore | None:
    """Bind (and return) the compiled core for ``mrrg``.

    Returns the already-bound core when present; binds a cached one when
    the compiled or native engine is active; returns ``None`` under the
    reference engine so interpreted searches pay zero array bookkeeping.
    """
    core = mrrg._core
    if core is not None:
        return core
    if ACTIVE_ENGINE == "reference":
        return None
    core = route_core_for(mrrg.arch, mrrg.ii)
    mrrg.bind_core(core)
    return core


def route_edge_compiled(mrrg: MRRG, core: RouteCore, net: int, src_fu: int,
                        depart_cycle: int, dst_fu: int, arrive_cycle: int,
                        hist: list[float], commit: bool) -> Route | None:
    """Integer-state Dijkstra, bit-identical to ``route_edge_reference``.

    ``hist`` is a flat ``rid * II + slot`` float array (``core.zero_hist``
    for history-free calls).  Cost arithmetic reproduces
    :meth:`MRRG.step_cost` term by term — ``cost_base`` already holds
    ``1.0 + present_factor * overuse`` — and the heap orders ``(cost,
    state)`` exactly like the reference ``(cost, place, cycle)`` tuples,
    so ties resolve identically.  States that cannot reach a consume
    place in the cycles left (``core.reach``) are never pushed.
    """
    span = arrive_cycle - depart_cycle
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return None

    if span == 1 and (src_fu, dst_fu) in core.bypass_pairs:
        route = Route(net=net, steps=(), src_fu=src_fu, dst_fu=dst_fu,
                      depart_cycle=depart_cycle, arrive_cycle=arrive_cycle,
                      bypass=True, charge_plan=())
        if commit:
            mrrg.commit_route(route)
        return route

    ii = core.ii
    base = mrrg._cost_base
    stride = MAX_TRANSPORT_CYCLES
    start_place = core.produce_place[src_fu]
    start_cycle = depart_cycle + 1
    key_of = core.key_of
    slot_keys = core.slot_keys
    caps = core.cap
    # RouteStep(kind, resource, cycle) without the NamedTuple
    # constructor's Python-level frame.
    new_step = tuple.__new__

    if span == 1:
        # Single-state search: the value sits in the producer's place for
        # exactly the arrival cycle — either that place feeds the
        # consumer (possibly over a read wire) or there is no route.
        # Cost never influences the result, so no search state is needed;
        # the Route matches the reference's one-pop search verbatim.
        read = core.goal_rid[dst_fu][start_place]
        if read == -1:
            return None
        index = start_place * ii + arrive_cycle % ii
        steps = [new_step(RouteStep,
                          ("occupy", key_of[start_place], arrive_cycle))]
        plan = [(slot_keys[index], arrive_cycle, index, False,
                 caps[start_place])]
        if read != -2:
            index = read * ii + arrive_cycle % ii
            steps.append(new_step(RouteStep,
                                  ("read", key_of[read], arrive_cycle)))
            plan.append((slot_keys[index], arrive_cycle, index, True,
                         caps[read]))
        # Positional Route(net, steps, src_fu, dst_fu, depart_cycle,
        # arrive_cycle, places, bypass, charge_plan): keywords cost more.
        route = Route(net, tuple(steps), src_fu, dst_fu, depart_cycle,
                      arrive_cycle, ((start_place, arrive_cycle),), False,
                      tuple(plan))
        if commit:
            mrrg.commit_route(route)
        return route

    reach = core.reach[dst_fu]
    rel_goal = span - 1
    if reach[start_place] > rel_goal:
        return None        # the start state itself is pruned

    # Segments already charged by this net are free (fanout sharing):
    # charges maps rid * II + slot -> {absolute cycle: refs} for exactly
    # this net's committed steps.  Place ids and res ids occupy disjoint
    # index ranges, so one membership probe per cost suffices.
    charges = mrrg._net_charges.get(net) or None
    has_charges = charges is not None
    # History terms are exactly 0.0 in the shared zero array, and x + 0.0
    # == x for these non-negative costs, so zero history is never read.
    has_hist = hist is not core.zero_hist

    sslot = start_cycle % ii
    sidx = start_place * ii + sslot
    if has_charges and sidx in charges and start_cycle in charges[sidx]:
        start_cost = 0.0
    elif has_hist:
        start_cost = base[sidx] + hist[sidx]
    else:
        start_cost = base[sidx]

    dist = core._dist
    stamp = core._stamp
    pstate = core._parent_state
    pmove = core._parent_move
    core._epoch += 1
    epoch = core._epoch
    adj = core.adj
    goal_row = core.goal_rid[dst_fu]
    arrive_slot = arrive_cycle % ii

    state0 = start_place * stride
    dist[state0] = start_cost
    stamp[state0] = epoch
    pstate[state0] = -1
    pmove[state0] = -1
    heap = [(start_cost, state0)]
    push = heapq.heappush
    pop = heapq.heappop

    goal_state = -1
    goal_read = -1
    goal_cost = float("inf")
    # Two copies of the relaxation loop: nets with committed charges or a
    # negotiation history pay the shared-segment membership probes and
    # history reads; the common case (first route of a net, no history)
    # runs the probe-free variant.  Both produce the identical float
    # stream — a hold charges no move resource, every history term is
    # exactly 0.0, and x + 0.0 == x for these non-negative costs, so
    # skipping the zero terms keeps costs bit-identical to the reference.
    # A transition into a place more than ``left`` moves from every
    # consume place is never pushed (``left`` counts the transitions
    # remaining after it).
    if not has_charges and not has_hist:
        while heap:
            cost, state = pop(heap)
            if cost >= goal_cost:
                break      # no remaining state can beat the best goal
            if cost > dist[state]:
                continue
            place = state // stride
            rel = state - place * stride
            if rel == rel_goal:
                read = goal_row[place]
                if read != -1:
                    if read == -2:
                        total = cost
                    else:
                        total = cost + base[read * ii + arrive_slot]
                    if total < goal_cost:
                        goal_cost = total
                        goal_state = state
                        goal_read = read
                continue
            cycle = start_cycle + rel
            cslot = cycle % ii
            nslot = (cycle + 1) % ii
            left = rel_goal - rel - 1
            # Hold in place for a cycle.
            if reach[place] <= left:
                new_cost = cost + base[place * ii + nslot]
                nstate = state + 1
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = -1
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = -1
                    push(heap, (new_cost, nstate))
            # Moves to connected places.
            nrel = rel + 1
            for dst_place, move_rid in adj[place]:
                if reach[dst_place] > left:
                    continue
                new_cost = cost + base[move_rid * ii + cslot] \
                    + base[dst_place * ii + nslot]
                nstate = dst_place * stride + nrel
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
    else:
        if not has_charges:
            charges = ()
        while heap:
            cost, state = pop(heap)
            if cost >= goal_cost:
                break
            if cost > dist[state]:
                continue
            place = state // stride
            rel = state - place * stride
            if rel == rel_goal:
                read = goal_row[place]
                if read != -1:
                    if read == -2:
                        total = cost
                    else:
                        ridx = read * ii + arrive_slot
                        if ridx in charges:
                            total = cost
                        elif has_hist:
                            total = cost + (base[ridx] + hist[ridx])
                        else:
                            total = cost + base[ridx]
                    if total < goal_cost:
                        goal_cost = total
                        goal_state = state
                        goal_read = read
                continue
            cycle = start_cycle + rel
            next_cycle = cycle + 1
            cslot = cycle % ii
            nslot = next_cycle % ii
            left = rel_goal - rel - 1
            # Hold in place for a cycle.
            if reach[place] <= left:
                oidx = place * ii + nslot
                if oidx in charges and next_cycle in charges[oidx]:
                    new_cost = cost
                elif has_hist:
                    new_cost = cost + (base[oidx] + hist[oidx])
                else:
                    new_cost = cost + base[oidx]
                nstate = state + 1
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = -1
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = -1
                    push(heap, (new_cost, nstate))
            # Moves to connected places.
            nrel = rel + 1
            for dst_place, move_rid in adj[place]:
                if reach[dst_place] > left:
                    continue
                midx = move_rid * ii + cslot
                if midx in charges:
                    move_cost = 0.0
                elif has_hist:
                    move_cost = base[midx] + hist[midx]
                else:
                    move_cost = base[midx]
                oidx = dst_place * ii + nslot
                if oidx in charges and next_cycle in charges[oidx]:
                    occupy_cost = 0.0
                elif has_hist:
                    occupy_cost = base[oidx] + hist[oidx]
                else:
                    occupy_cost = base[oidx]
                new_cost = cost + move_cost + occupy_cost
                nstate = dst_place * stride + nrel
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))

    if goal_state == -1:
        return None

    # Reconstruct occupancy/move steps and their charge plan (identical
    # step order to the reference: backward walk, then reverse, then the
    # consume read).
    steps: list[RouteStep] = []
    plan: list[tuple] = []
    places: list[tuple[int, int]] = []
    state = goal_state
    while True:
        place, rel = divmod(state, stride)
        cycle = start_cycle + rel
        index = place * ii + cycle % ii
        steps.append(new_step(RouteStep, ("occupy", key_of[place], cycle)))
        plan.append((slot_keys[index], cycle, index, False, caps[place]))
        places.append((place, cycle))
        parent = pstate[state]
        if parent == -1:
            break
        move_rid = pmove[state]
        if move_rid != -1:
            cycle -= 1
            index = move_rid * ii + cycle % ii
            steps.append(new_step(RouteStep,
                                  ("move", key_of[move_rid], cycle)))
            plan.append((slot_keys[index], cycle, index, True,
                         caps[move_rid]))
        state = parent
    steps.reverse()
    plan.reverse()
    places.reverse()

    if goal_read != -2:
        index = goal_read * ii + arrive_slot
        steps.append(new_step(RouteStep,
                              ("read", key_of[goal_read], arrive_cycle)))
        plan.append((slot_keys[index], arrive_cycle, index, True,
                     caps[goal_read]))

    route = Route(net, tuple(steps), src_fu, dst_fu, depart_cycle,
                  arrive_cycle, tuple(places), False, tuple(plan))
    if commit:
        mrrg.commit_route(route)
    return route
