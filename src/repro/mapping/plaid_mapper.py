"""The Plaid mapper: hierarchical motif-aware mapping (Algorithm 2).

The mapper operates on the hierarchical DFG: whole motifs are placed onto
PCUs using flexible schedule templates (Section 5.2), singleton nodes onto
individual FUs.  The flow follows the paper:

1. motifs are sorted by data dependency (critical groups first);
2. each is greedily placed on the candidate with the least routing cost;
3. if the mapping is not valid, a simulated-annealing loop repeatedly
   unmaps one group, picks a random placement candidate, evaluates every
   schedule template with Dijkstra-routed operands, and keeps the best —
   occasionally accepting a worse state to escape local minima;
4. the II is incremented when the time budget runs out.

On Plaid-ML fabrics (hardwired motif PCUs) collective groups may only land
on PCUs hardwired for their kind — pattern edges there are free wires —
while general PCUs accept anything.

The II escalation (step 4) and stats live in the shared
:class:`~repro.mapping.engine.MappingEngine`; this class is the per-II
strategy, with one restart per candidate motif decomposition.
"""

from __future__ import annotations

import math
from operator import itemgetter

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.specialize import hardwired_motif_kinds
from repro.errors import MappingError
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import modulo_asap, schedule_horizon
from repro.mapping.engine import MapperStrategy, MRRGLease, register_mapper
from repro.mapping.router import route_edge, transport_latency_table
from repro.motifs.hierarchy import HierarchicalDFG, build_hierarchy
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import MotifKind

#: FUs per PCU (3 ALUs + ALSU); ALU slot s of PCU u is FU ``u*4 + s``.
_FUS_PER_PCU = 4


class PlaidMapper(MapperStrategy):
    """Motif-aware hierarchical mapper for Plaid fabrics."""

    name = "plaid"
    failure_label = "Plaid mapper"

    def __init__(self, moves_per_ii: int = 600, start_temp: float = 6.0,
                 cooling: float = 0.99, max_ii: int | None = None,
                 seed: int | None = None,
                 motif_seed: int | None = None) -> None:
        self.moves_per_ii = moves_per_ii
        self.start_temp = start_temp
        self.cooling = cooling
        self.max_ii = max_ii
        self.seed = seed
        self.motif_seed = motif_seed

    # ------------------------------------------------------------------
    def map(self, dfg: DFG, arch: Architecture,
            hierarchy: HierarchicalDFG | None = None) -> Mapping:
        """Map ``dfg`` (motif-decomposed) onto a Plaid fabric."""
        return super().map(dfg, arch, hierarchy=hierarchy)

    def prepare(self, dfg: DFG, arch: Architecture, rng,
                hierarchy: HierarchicalDFG | None = None):
        if arch.style != "plaid":
            raise MappingError(
                f"PlaidMapper targets Plaid fabrics, not {arch.style}"
            )
        hardwired = hardwired_motif_kinds(arch)
        if hierarchy is not None:
            if hardwired is not None:
                hierarchy = demote_for_hardwired(hierarchy, hardwired)
            return ([hierarchy], hardwired, None)
        # Algorithm 1 is stochastic; a different decomposition often
        # relieves structural congestion, so failures retry with fresh
        # motif seeds before giving up.  Each decomposition is built when
        # a restart first needs it: build_hierarchy draws from its own
        # seed, never from the search's RNG, so the order of building
        # changes nothing.
        base = self.motif_seed if self.motif_seed is not None else 11
        return ([None] * 3, hardwired, base)

    def attempts_per_ii(self, ii: int, context) -> int:
        hierarchies, _hardwired, _base = context
        return len(hierarchies)

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, lease: MRRGLease,
                   context) -> Mapping | None:
        hierarchies, hardwired, base = context
        hierarchy = hierarchies[restart]
        if hierarchy is None:
            hierarchy = build_hierarchy(dfg, seed=base + 12 * restart)
            if hardwired is not None:
                hierarchy = demote_for_hardwired(hierarchy, hardwired)
            hierarchies[restart] = hierarchy
        state = _State(dfg, arch, hierarchy, ii,
                       hardwired, rng, mrrg=lease.fresh())
        return self._solve(state)

    # ------------------------------------------------------------------
    def _solve(self, state: "_State") -> Mapping | None:
        return solve_state(state, self.moves_per_ii, self.start_temp,
                           self.cooling)


def solve_state(state: "_State", moves: int, start_temp: float,
                cooling: float) -> Mapping | None:
    """Greedy placement plus annealing repair over a mapping state.

    This is Algorithm 2's search loop; the generic SA baseline reuses it
    over a singleton (motif-blind) hierarchy.
    """
    # Lines 1-4: dependency-sorted greedy placement.
    for group in state.order:
        if not state.place_group_best(group):
            state.unplaced.add(group)
    # Lines 5-11: annealing repair loop, with reheating ("like typical
    # simulated annealing, we can occasionally accept a worse movement to
    # overcome the local minimum").
    temperature = start_temp
    cost = state.cost()
    best_cost = cost
    stall = 0
    for _move in range(moves):
        if state.is_complete() and state.mrrg.is_legal():
            break
        group = state.pick_victim()
        if group is None:
            break
        saved = state.unmap_group(group)
        placed = state.place_group_random()
        new_cost = state.cost()
        delta = new_cost - cost
        accept = placed and (
            delta <= 0
            or state.rng.random() < math.exp(
                -delta / max(temperature, 1e-6))
        )
        if accept:
            cost = new_cost
        else:
            state.restore_group(group, saved, placed)
            cost = state.cost()
        if cost < best_cost - 1e-9:
            best_cost = cost
            stall = 0
        else:
            stall += 1
            if stall >= 150:
                temperature = start_temp
                stall = 0
        temperature *= cooling
    if not state.is_complete():
        return None
    if not state.mrrg.is_legal():
        return None
    mapping = Mapping(dfg=state.dfg, arch=state.arch, ii=state.ii,
                      placement=dict(state.placement),
                      routes=dict(state.routes))
    mapping.validate()
    return mapping


def demote_for_hardwired(hierarchy: HierarchicalDFG,
                         hardwired: dict[int, "MotifKind"]
                         ) -> HierarchicalDFG:
    """Adapt a hierarchy to a Plaid-ML fabric.

    Hardwired PCUs have no local router, so only motifs matching some
    PCU's hardwired pattern can execute collectively; two-node motifs and
    unmatched three-node motifs are demoted to standalone nodes (which
    still execute on any ALU over the fully reconfigurable global
    datapath, per Section 4.4).
    """
    from repro.motifs.hierarchy import HierarchyEdge
    from repro.motifs.types import Motif

    available_kinds = set(hardwired.values())
    groups: list[Motif] = []
    for motif in hierarchy.groups:
        if motif.is_collective and motif.kind not in available_kinds:
            groups.extend(
                Motif(MotifKind.SINGLETON, (node_id,))
                for node_id in motif.nodes
            )
        else:
            groups.append(motif)
    node_to_group: dict[int, int] = {}
    for index, motif in enumerate(groups):
        for node_id in motif.nodes:
            node_to_group[node_id] = index
    dfg = hierarchy.dfg
    inter_edges = []
    for edge in dfg.edges:
        src_group = node_to_group[edge.src]
        dst_group = node_to_group[edge.dst]
        if edge.is_ordering or src_group != dst_group or edge.distance > 0:
            inter_edges.append(HierarchyEdge(src_group, dst_group, edge))
    demoted = HierarchicalDFG(dfg=dfg, groups=groups,
                              node_to_group=node_to_group,
                              inter_edges=inter_edges)
    demoted.validate()
    return demoted


def singleton_hierarchy(dfg: DFG) -> HierarchicalDFG:
    """A motif-blind hierarchy: every node is its own group.

    Generic mappers use this view — they see the same fabric but cannot
    exploit collective motif placement, which is exactly the comparison of
    the paper's Figure 18.
    """
    from repro.motifs.hierarchy import HierarchyEdge
    from repro.motifs.types import Motif

    groups = [Motif(MotifKind.SINGLETON, (node.node_id,))
              for node in dfg.nodes]
    node_to_group = {
        node.node_id: index for index, node in enumerate(dfg.nodes)
    }
    inter_edges = [
        HierarchyEdge(node_to_group[edge.src], node_to_group[edge.dst], edge)
        for edge in dfg.edges
    ]
    hierarchy = HierarchicalDFG(dfg=dfg, groups=groups,
                                node_to_group=node_to_group,
                                inter_edges=inter_edges)
    hierarchy.validate()
    return hierarchy


class _State:
    """Mutable mapping state for one II attempt.

    Everything the candidate scorers ask of the DFG is derived once here,
    as per-group tables: incident edges, external in- and out-edges, ASAP
    values and singleton FU lists.  Transport latencies come from the
    fabric's FU x FU table, so scoring a candidate is tuple walks and
    index lookups.
    """

    def __init__(self, dfg: DFG, arch: Architecture,
                 hierarchy: HierarchicalDFG, ii: int,
                 hardwired: dict[int, MotifKind] | None, rng,
                 mrrg: MRRG | None = None) -> None:
        self.dfg = dfg
        self.arch = arch
        self.hierarchy = hierarchy
        self.ii = ii
        self.hardwired = hardwired
        self.rng = rng
        self.mrrg = mrrg if mrrg is not None else MRRG(arch, ii)
        self.placement: dict[int, tuple[int, int]] = {}
        #: Data-edge index -> committed route (ordering edges never route).
        #: Changed only through _set_route/_pop_route, which keep
        #: ``_steps`` (the routes' summed step count) current.
        self.routes: dict[int, Route] = {}
        self._steps = 0
        self.unplaced: set[int] = set()
        self.group_of_edge: dict[int, tuple[int, int]] = {}
        self.order = hierarchy.dependency_order()
        self.horizon = schedule_horizon(dfg, ii)
        asap = modulo_asap(dfg, ii) or {}
        self.num_pcus = arch.rows * arch.cols
        self._latency = transport_latency_table(arch)
        self._edge_list = dfg.edges
        self._ordering_edges = [e for e in dfg.edges if e.is_ordering]
        self._n_data_edges = len(dfg.edges) - len(self._ordering_edges)
        groups = hierarchy.groups
        #: group -> indices of the edges touching it.
        self._incident_groups: list[list[int]] = [[] for _ in groups]
        # group -> incident edges as (src, dst, distance * II, is_ordering);
        # external in-/out-edges as (other endpoint, distance * II,
        # is_ordering).
        incident: list[list[tuple]] = [[] for _ in groups]
        ext_in: list[list[tuple]] = [[] for _ in groups]
        ext_out: list[list[tuple]] = [[] for _ in groups]
        #: edge index -> (src, dst, distance * II, is_ordering).
        self._edge_rows: list[tuple] = []
        for index, edge in enumerate(self._edge_list):
            sg = hierarchy.group_of(edge.src)
            dg = hierarchy.group_of(edge.dst)
            self.group_of_edge[index] = (sg, dg)
            delay = edge.distance * ii
            row = (edge.src, edge.dst, delay, edge.is_ordering)
            self._edge_rows.append(row)
            self._incident_groups[sg].append(index)
            incident[sg].append(row)
            if dg != sg:
                self._incident_groups[dg].append(index)
                incident[dg].append(row)
                ext_out[sg].append((edge.dst, delay, edge.is_ordering))
                ext_in[dg].append((edge.src, delay, edge.is_ordering))
        self._incident_edges = [tuple(rows) for rows in incident]
        self._ext_in = [tuple(rows) for rows in ext_in]
        self._ext_out = [tuple(rows) for rows in ext_out]
        self._group_asap = [
            max((asap.get(nid, 0) for nid in motif.nodes), default=0)
            for motif in groups
        ]
        self._singleton_fus = [
            None if motif.is_collective else tuple(
                fu.fu_id for fu in arch.fus_supporting(
                    dfg.node(motif.nodes[0]).op))
            for motif in groups
        ]
        #: group -> list of (node_id, fu_id, cycle) commitments.
        self.group_spots: dict[int, list[tuple[int, int, int]]] = {}
        self._last_failed: int | None = None

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def _pcus_for_kind(self, kind: MotifKind) -> list[int]:
        if self.hardwired is None:
            return list(range(self.num_pcus))
        if kind in (MotifKind.FAN_IN, MotifKind.FAN_OUT, MotifKind.UNICAST):
            matching = [p for p, k in self.hardwired.items() if k is kind]
            return matching or list(range(self.num_pcus))
        return list(range(self.num_pcus))

    # ------------------------------------------------------------------
    # Group placement
    # ------------------------------------------------------------------
    def place_group_best(self, group: int) -> bool:
        """Greedy (Algorithm 2 lines 3-4): rank candidates by a cheap
        routing estimate, then commit the best candidate that actually
        routes; candidates are (PCU, template, start) for motifs and
        (FU, cycle) for singletons."""
        motif = self.hierarchy.groups[group]
        group_asap = self._group_asap[group]
        candidates = []
        if motif.is_collective:
            templates = schedule_templates(motif.kind)[:8]
            window = min(self.ii, 4)
            for pcu in self._pcus_for_kind(motif.kind):
                earliest = max(
                    self._earliest_start(group, pcu * _FUS_PER_PCU),
                    group_asap)
                for template in templates:
                    for start in range(earliest,
                                       min(earliest + window, self.horizon)):
                        spots = self._collective_spots(group, pcu, template,
                                                       start)
                        if spots is None:
                            continue
                        estimate = self._estimate(group, spots)
                        if estimate == math.inf:
                            continue
                        candidates.append((estimate + 0.05 * start, spots))
        else:
            node_id = motif.nodes[0]
            fu_free = self.mrrg.fu_free
            fus = list(self._singleton_fus[group])
            self.rng.shuffle(fus)
            for fu_id in fus:
                earliest = max(self._earliest_start(group, fu_id),
                               group_asap)
                stop = min(earliest + 2 * self.ii, self.horizon,
                           self._deadline(group, fu_id) + 1)
                found = 0
                for cycle in range(earliest, stop):
                    if not fu_free(fu_id, cycle):
                        continue
                    spots = [(node_id, fu_id, cycle)]
                    estimate = self._estimate(group, spots)
                    if estimate == math.inf:
                        continue
                    candidates.append((estimate + 0.05 * cycle, spots))
                    found += 1
                    if found >= 3:
                        break
        candidates.sort(key=itemgetter(0))
        return self._commit_best(group, [c[1] for c in candidates[:6]])

    def place_group_random(self) -> bool:
        """Lines 7-11: random placement candidate for the unmapped victim,
        evaluating every schedule template and keeping the best."""
        if self._last_failed is None:
            return False
        group = self._last_failed
        motif = self.hierarchy.groups[group]
        if not motif.is_collective:
            return self.place_group_best(group)
        pcus = self._pcus_for_kind(motif.kind)
        pcu = self.rng.choice(pcus)              # line 7: random candidate
        earliest = max(self._earliest_start(group, pcu * _FUS_PER_PCU),
                       self._group_asap[group])
        span = max(1, min(2 * self.ii, self.horizon - earliest))
        start0 = earliest + self.rng.randrange(span)
        candidates = []
        for template in schedule_templates(motif.kind):   # line 9
            for start in (start0, start0 + 1, earliest):
                spots = self._collective_spots(group, pcu, template, start)
                if spots is None:
                    continue
                estimate = self._estimate(group, spots)
                if estimate != math.inf:
                    candidates.append((estimate, spots))
        candidates.sort(key=itemgetter(0))
        return self._commit_best(group,
                                 [c[1] for c in candidates[:4]])   # line 11

    def _commit_best(self, group: int, spot_lists) -> bool:
        """Trial-route each candidate (with rollback), then commit the one
        with the lowest full cost — congestion included, so repair moves
        actually relieve overused wires.

        A trial is not side-effect free: its :meth:`_negotiate` may reroute
        routes already in ``self.routes``, and the rollback undoes only
        the trial's own placement and routes.  So the winner's trial
        routes are reused for the keep only when neither the winner's
        trial nor any later one ripped anything up: then every rollback
        restored the state the winner was trialled on exactly, and routing
        the winner again would rebuild the very same routes.  Otherwise
        the winner is placed and routed afresh.
        """
        best_spots = None
        best_routes: dict[int, Route] = {}
        best_total = math.inf
        reusable = False
        for spots in spot_lists:
            total, routes, ripped = self._commit_spots(group, spots,
                                                       keep=False)
            if total is not None and total < best_total:
                best_total = total
                best_spots = spots
                best_routes = routes
                reusable = not ripped
            elif ripped:
                reusable = False
        if best_spots is None:
            return False
        if reusable:
            self._place_spots(best_spots)
            for route in best_routes.values():
                self.mrrg.commit_route(route)
            self._keep(group, best_spots, best_routes)
            return True
        return self._commit_spots(group, best_spots, keep=True)[0] \
            is not None

    # ------------------------------------------------------------------
    def _collective_spots(self, group, pcu, template, start):
        motif = self.hierarchy.groups[group]
        spots = []
        for role, node_id in enumerate(motif.nodes):
            fu_id = pcu * _FUS_PER_PCU + template.slots[role]
            cycle = start + template.offsets[role]
            if cycle >= self.horizon or start < 0:
                return None
            if not self.mrrg.fu_free(fu_id, cycle):
                return None
            spots.append((node_id, fu_id, cycle))
        return spots

    def _estimate(self, group: int, spots) -> float:
        """Routing-free candidate score: transport slack and wire length
        to already-placed neighbours; infinity when timing-infeasible."""
        trial = {node_id: (fu, cyc) for node_id, fu, cyc in spots}
        placement = self.placement
        latency = self._latency
        score = 0.0
        for src, dst, delay, ordering in self._incident_edges[group]:
            src_spot = trial.get(src) or placement.get(src)
            dst_spot = trial.get(dst) or placement.get(dst)
            if src_spot is None or dst_spot is None:
                continue
            src_fu, src_cycle = src_spot
            dst_fu, dst_cycle = dst_spot
            arrival = dst_cycle + delay
            if ordering:
                if arrival < src_cycle + 1:
                    return math.inf
                continue
            lat = latency[src_fu][dst_fu]
            span = arrival - src_cycle
            if span < lat:
                return math.inf
            # Prefer short wires and tight schedules.
            score += 2.0 * lat + 0.5 * (span - lat)
        return score

    # ------------------------------------------------------------------
    def _earliest_start(self, group: int, fu_id: int) -> int:
        """Earliest cycle ``fu_id`` can execute a node of the group, given
        the group's placed external predecessors."""
        earliest = 0
        placement = self.placement
        latency = self._latency
        for src, delay, ordering in self._ext_in[group]:
            spot = placement.get(src)
            if spot is not None:
                src_fu, src_cycle = spot
                lat = 1 if ordering else latency[src_fu][fu_id]
                earliest = max(earliest, src_cycle + lat - delay)
        return earliest

    def _deadline(self, group: int, fu_id: int) -> int:
        """Latest cycle a singleton on ``fu_id`` can execute, given the
        group's placed external consumers (``horizon`` when none is).

        Sound as a hard cut: a consumer placed at ``dst_cycle`` with
        ``distance * II`` slack needs ``need`` transport cycles (1 for an
        ordering edge, the FU-to-FU latency for a data edge), and
        :meth:`_estimate` scores any cycle past ``dst_cycle + distance *
        II - need`` infinite.  Such cycles never became candidates, never
        counted toward the per-FU quota and drew no random numbers, so
        not visiting them leaves the search unchanged.
        """
        deadline = self.horizon
        placement = self.placement
        row = self._latency[fu_id]
        for dst, delay, ordering in self._ext_out[group]:
            spot = placement.get(dst)
            if spot is not None:
                dst_fu, dst_cycle = spot
                need = 1 if ordering else row[dst_fu]
                deadline = min(deadline, dst_cycle + delay - need)
        return deadline

    # ------------------------------------------------------------------
    # Committing (place + route or roll back)
    # ------------------------------------------------------------------
    def _commit_spots(self, group: int, spots, keep: bool = True
                      ) -> tuple[float | None, dict[int, Route], bool]:
        """Place nodes, route ready edges, score; roll back unless keep.

        Returns ``(total, routes, ripped)``: the full cost (None when an
        edge failed, or when ``keep`` could not be honoured), the group's
        new routes, and whether negotiation ripped up any route.
        """
        self._place_spots(spots)
        new_routes: dict[int, Route] = {}
        failed = 0
        cost = 0
        placement = self.placement
        mrrg = self.mrrg
        rows = self._edge_rows
        for index in self._incident_groups[group]:
            src, dst, delay, ordering = rows[index]
            src_spot = placement.get(src)
            dst_spot = placement.get(dst)
            if src_spot is None or dst_spot is None:
                continue
            if ordering:
                if dst_spot[1] + delay < src_spot[1] + 1:
                    failed += 1
                continue
            route = route_edge(mrrg, src, src_spot[0], src_spot[1],
                               dst_spot[0], dst_spot[1] + delay)
            if route is None:
                failed += 1
            else:
                new_routes[index] = route
                cost += len(route.steps)
        ripped = failed == 0 and self._negotiate(new_routes)
        if ripped:      # negotiation may have rerouted new routes
            cost = sum(len(route.steps) for route in new_routes.values())
        total = 1000.0 * failed + 100.0 * self.mrrg.total_overuse() + cost
        if keep and failed == 0:
            self._keep(group, spots, new_routes)
            return total, new_routes, ripped
        # Roll back.
        for route in new_routes.values():
            self.mrrg.uncommit_route(route)
        for node_id, fu_id, cycle in spots:
            self.mrrg.unplace_node(node_id, fu_id, cycle)
            del self.placement[node_id]
        if keep or failed:
            return None, new_routes, ripped
        return total, new_routes, ripped

    def _place_spots(self, spots) -> None:
        for node_id, fu_id, cycle in spots:
            self.placement[node_id] = (fu_id, cycle)
            self.mrrg.place_node(node_id, fu_id, cycle)

    def _keep(self, group: int, spots, new_routes: dict[int, Route]) -> None:
        """Record a committed group and its routes."""
        self.group_spots[group] = list(spots)
        for index, route in new_routes.items():
            self._set_route(index, route)
        self.unplaced.discard(group)

    def _set_route(self, index: int, route: Route) -> None:
        old = self.routes.get(index)
        if old is not None:
            self._steps -= len(old.steps)
        self.routes[index] = route
        self._steps += len(route.steps)

    def _pop_route(self, index: int) -> Route | None:
        route = self.routes.pop(index, None)
        if route is not None:
            self._steps -= len(route.steps)
        return route

    def _route_index(self, index: int) -> Route | None:
        src, dst, delay, _ordering = self._edge_rows[index]
        src_fu, src_cycle = self.placement[src]
        dst_fu, dst_cycle = self.placement[dst]
        return route_edge(self.mrrg, src, src_fu, src_cycle,
                          dst_fu, dst_cycle + delay)

    def _negotiate(self, new_routes: dict[int, Route],
                   rounds: int = 2) -> bool:
        """Mini rip-up-and-reroute: slack-rich routes committed early can
        squat on wires that later, tighter routes have no alternative to.
        Every committed route touching an overused slot — whichever group
        it belongs to — is rerouted against the now-visible congestion.

        This is why a trial commit is not side-effect free: rerouted
        routes of other groups stay rerouted after the trial's rollback.
        Returns whether any route was ripped up (rerouted, or put back
        when no reroute was found), which :meth:`_commit_best` needs to
        know before it may reuse a trial's routes.
        """
        ripped = False
        for _round in range(rounds):
            violations = self.mrrg.overuse()
            if not violations:
                return ripped
            hot = {(res, slot) for res, slot, _u, _c in violations}
            candidates = list(new_routes.items()) + [
                (index, route) for index, route in self.routes.items()
                if index not in new_routes
            ]
            for index, route in candidates:
                if not self._touches(route, hot):
                    continue
                ripped = True
                self.mrrg.uncommit_route(route)
                redone = self._route_index(index)
                if redone is None:
                    self.mrrg.commit_route(route)
                    continue
                if index in new_routes or index not in self.routes:
                    new_routes[index] = redone
                else:
                    self._set_route(index, redone)
        return ripped

    def _ordering_ok(self, edge) -> bool:
        if edge.src not in self.placement or edge.dst not in self.placement:
            return True
        _sf, src_cycle = self.placement[edge.src]
        _df, dst_cycle = self.placement[edge.dst]
        return dst_cycle + edge.distance * self.ii >= src_cycle + 1

    # ------------------------------------------------------------------
    # Annealing moves
    # ------------------------------------------------------------------
    def pick_victim(self) -> int | None:
        if self.unplaced:
            # First re-place anything missing; but unmapping a placed
            # neighbour sometimes frees the needed spot.
            if self.rng.random() < 0.7:
                victim = self.rng.choice(sorted(self.unplaced))
                self._last_failed = victim
                return victim
        placed_groups = [g for g in self.group_spots]
        if not placed_groups:
            return None
        # Prefer groups whose routes sit on overused resource slots: they
        # are the ones a re-placement can actually relieve.
        congested = self._congested_groups()
        if congested and self.rng.random() < 0.75:
            victim = self.rng.choice(congested)
        else:
            victim = self.rng.choice(placed_groups)
        self._last_failed = victim
        return victim

    def _congested_groups(self) -> list[int]:
        hot = {
            (resource, slot)
            for resource, slot, _u, _c in self.mrrg.overuse()
        }
        if not hot:
            return []
        groups: set[int] = set()
        for index, route in self.routes.items():
            if self._touches(route, hot):
                src_group, dst_group = self.group_of_edge[index]
                if src_group in self.group_spots:
                    groups.add(src_group)
                if dst_group in self.group_spots:
                    groups.add(dst_group)
        return sorted(groups)

    def _touches(self, route: Route, hot) -> bool:
        """Whether ``route`` charges one of the ``(resource, slot)`` keys
        in ``hot``.  A committed compiled route carries its keys in its
        charge plan; routes without a plan (reference engine) derive them
        from their steps."""
        plan = route.charge_plan
        if plan:
            for entry in plan:
                if entry[0] in hot:
                    return True
            return False
        ii = self.ii
        for step in route.steps:
            if (step.resource, step.cycle % ii) in hot:
                return True
        return False

    def unmap_group(self, group: int):
        """Remove a group's nodes and every route touching them."""
        saved_spots = self.group_spots.pop(group, [])
        saved_routes: dict[int, Route] = {}
        for index in self._incident_groups[group]:
            route = self._pop_route(index)
            if route is not None:
                saved_routes[index] = route
                self.mrrg.uncommit_route(route)
        for node_id, fu_id, cycle in saved_spots:
            self.mrrg.unplace_node(node_id, fu_id, cycle)
            self.placement.pop(node_id, None)
        self.unplaced.add(group)
        self._last_failed = group
        return (saved_spots, saved_routes)

    def restore_group(self, group: int, saved, newly_placed: bool) -> None:
        """Undo an annealing move: put the group back where it was."""
        if newly_placed:
            self.unmap_group(group)
        saved_spots, saved_routes = saved
        if not saved_spots:
            return
        ok = all(self.mrrg.fu_free(fu, cyc) for _n, fu, cyc in saved_spots)
        if not ok:
            return    # stays unplaced; annealing continues
        for node_id, fu_id, cycle in saved_spots:
            self.placement[node_id] = (fu_id, cycle)
            self.mrrg.place_node(node_id, fu_id, cycle)
        for index, route in saved_routes.items():
            edge = self._edge_list[index]
            if edge.src in self.placement and edge.dst in self.placement:
                self._set_route(index, route)
                self.mrrg.commit_route(route)
        self.group_spots[group] = saved_spots
        self.unplaced.discard(group)

    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        return (not self.unplaced
                and len(self.routes) == self._n_data_edges
                and all(self._ordering_ok(edge)
                        for edge in self._ordering_edges))

    def cost(self) -> float:
        """:func:`~repro.mapping.common.mapping_cost` plus the unplaced
        penalty, term for term, over the running step count."""
        missing = self._n_data_edges - len(self.routes)
        return 1000.0 * missing + 100.0 * self.mrrg.total_overuse() \
            + 1.0 * self._steps + 500.0 * len(self.unplaced)


register_mapper(
    "plaid", PlaidMapper,
    description="motif-aware hierarchical mapping with flexible schedule "
                "templates (the paper's Algorithm 2)",
)
