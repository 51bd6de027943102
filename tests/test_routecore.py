"""Conformance locks for the compiled routing core.

Three invariants, mirroring the PR 2/PR 3 engine pattern:

* **Per-route:** :func:`routecore.route_edge_compiled` returns exactly
  the same :class:`Route` (steps, order, places, endpoints) as
  :func:`router.route_edge_reference` for any scenario — empty fabrics,
  congested fabrics, fanout sharing, negotiation history.
* **Per-search:** whole mapper runs under the compiled engine are
  bit-identical to runs under the reference engine (placements, routes,
  IIs, attempt counts) across the golden-grid workloads, for every
  temporal mapper.
* **Negotiation:** PathFinder's incremental dirty-net negotiation
  produces bit-identical mappings to the full rip-up oracle
  (``incremental=False``) across the same grid.

Plus lock-step checks that the flat congestion arrays the core reads are
always reconstructible from the authoritative usage dicts.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import MRRG, make_plaid, make_spatio_temporal
from repro.errors import MappingError
from repro.eval.harness import _seed_for
from repro.mapping import routecore
from repro.mapping.engine import MappingEngine, default_pool, get_mapper
from repro.mapping.pathfinder import PathFinderMapper
from repro.mapping.router import (
    ROUTING, RoutingHistory, min_transport_latency, route_edge,
    route_edge_reference, set_routing_engine,
)
from repro.workloads import get_dfg

GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]

MAPPER_CASES = [
    ("pathfinder", "st", lambda: make_spatio_temporal(4, 4)),
    ("sa", "st", lambda: make_spatio_temporal(4, 4)),
    ("plaid", "plaid", lambda: make_plaid(2, 2)),
    ("greedy", "plaid", lambda: make_plaid(2, 2)),
]


@pytest.fixture(autouse=True)
def _compiled_engine():
    """Every test starts from the default engine and clean pools."""
    previous = set_routing_engine("compiled")
    default_pool().clear()
    routecore.clear_core_cache()
    yield
    set_routing_engine(previous)
    default_pool().clear()
    routecore.clear_core_cache()


def _bound(arch, ii):
    mrrg = MRRG(arch, ii)
    routecore.ensure_core(mrrg)
    return mrrg


def _assert_same_route(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b
        assert a.steps == b.steps        # step order, not just set


# ---------------------------------------------------------------------------
# Per-route conformance
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       slack=st.integers(0, 5), ii=st.sampled_from([2, 4, 7]),
       depart=st.integers(0, 9))
def test_compiled_matches_reference_empty_fabric(src, dst, slack, ii,
                                                 depart):
    arch = make_spatio_temporal(4, 4)
    compiled = _bound(arch, ii)
    reference = MRRG(arch, ii)
    arrive = depart + min_transport_latency(arch, src, dst) + slack
    hist = routecore.route_core_for(arch, ii).zero_hist
    got = routecore.route_edge_compiled(
        compiled, compiled._core, 1, src, depart, dst, arrive, hist, False)
    want = route_edge_reference(reference, 1, src, depart, dst, arrive,
                                commit=False)
    _assert_same_route(got, want)


def _assert_compiled_plan(mrrg, route):
    """A compiled route carries, from construction, exactly the charge
    plan MRRG._charge_plan derives from its steps."""
    if route is not None:
        assert route.charge_plan is not None
        assert route.charge_plan == mrrg._charge_plan(route)


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), ii=st.sampled_from([2, 4]),
       plaid=st.booleans())
def test_compiled_matches_reference_congested(seed, ii, plaid):
    """Random committed routes (congestion + fanout sharing + history),
    then every further routing request must agree between engines.

    Slacks reach 8 cycles, so the push-time reach prune fires; requests
    with the shared zero history on nets that already hold charges take
    the charged loop without history reads."""
    import random

    arch = make_plaid(2, 2) if plaid else make_spatio_temporal(4, 4)
    compiled = _bound(arch, ii)
    reference = MRRG(arch, ii)
    core = compiled._core
    rng = random.Random(seed)
    n_fus = len(arch.fus)
    history = RoutingHistory(core)

    # Commit a handful of routes on BOTH graphs, reusing a few nets so
    # fanout sharing and refcounts are exercised; sprinkle history.
    for _ in range(rng.randrange(1, 10)):
        net = rng.randrange(3)
        src, dst = rng.randrange(n_fus), rng.randrange(n_fus)
        depart = rng.randrange(4)
        arrive = depart + min_transport_latency(arch, src, dst) \
            + rng.randrange(9)
        if rng.random() < 0.5:
            hist, ref_history = history.array, history
        else:
            hist, ref_history = core.zero_hist, None
        got = routecore.route_edge_compiled(
            compiled, core, net, src, depart, dst, arrive, hist, True)
        want = route_edge_reference(reference, net, src, depart, dst,
                                    arrive, ref_history, commit=True)
        _assert_same_route(got, want)
        _assert_compiled_plan(compiled, got)
        if rng.random() < 0.3:
            for resource, slot, used, cap in reference.overuse()[:2]:
                history.add(resource, slot, 2.0 * (used - cap))
    assert compiled.occupancy_snapshot() == reference.occupancy_snapshot()
    assert compiled.overuse() == reference.overuse()

    # Now probe a grid of fresh requests against the congested state:
    # nets 0-2 hold charges, net 7 does not; each request is made with
    # the negotiation history and with none (the shared zero array).
    for src in range(0, n_fus, 3):
        for dst in range(0, n_fus, 2):
            for net in (0, 7):
                depart = rng.randrange(3)
                arrive = depart + min_transport_latency(arch, src, dst) \
                    + rng.randrange(9)
                for hist, ref_history in ((history.array, history),
                                          (core.zero_hist, None)):
                    got = routecore.route_edge_compiled(
                        compiled, core, net, src, depart, dst, arrive,
                        hist, False)
                    want = route_edge_reference(
                        reference, net, src, depart, dst, arrive,
                        ref_history, commit=False)
                    _assert_same_route(got, want)
                    _assert_compiled_plan(compiled, got)


REACH_FABRICS = [
    ("st4x4", lambda: make_spatio_temporal(4, 4)),
    ("st6x6", lambda: make_spatio_temporal(6, 6)),
    ("plaid", lambda: make_plaid(2, 2)),
    ("plaid3x3", lambda: make_plaid(3, 3)),
]


@pytest.mark.parametrize("name,factory", REACH_FABRICS,
                         ids=[name for name, _ in REACH_FABRICS])
def test_reach_matches_brute_force_bfs(name, factory):
    """reach[fu][place] is the BFS distance over arch.moves from the
    place to one of the FU's consume places, or the sentinel."""
    arch = factory()
    core = routecore.route_core_for(arch, 3)
    successors = {place.place_id: [] for place in arch.places}
    for move in arch.moves:
        successors[move.src].append(move.dst)
    for fu in arch.fus:
        goals = set(arch.consume_places[fu.fu_id])
        for start in successors:
            distance, frontier, seen = 0, [start], {start}
            found = None
            while frontier:
                if goals.intersection(frontier):
                    found = distance
                    break
                distance += 1
                frontier = [dst for src in frontier
                            for dst in successors[src] if dst not in seen]
                seen.update(frontier)
            want = routecore.UNREACHABLE if found is None else found
            assert core.reach[fu.fu_id][start] == want, (name, fu, start)


# ---------------------------------------------------------------------------
# Whole-search conformance: compiled engine vs reference engine
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mapper_key,arch_key,arch_factory", MAPPER_CASES)
def test_mapper_runs_bit_identical_across_engines(mapper_key, arch_key,
                                                  arch_factory):
    for workload in GOLDEN_WORKLOADS:
        seed = _seed_for(workload, arch_key, mapper_key)
        results = {}
        for engine in ("reference", "compiled"):
            set_routing_engine(engine)
            default_pool().clear()
            routecore.clear_core_cache()
            mapper = get_mapper(mapper_key).make(seed=seed)
            results[engine] = mapper.map(get_dfg(workload), arch_factory())
        reference, compiled = results["reference"], results["compiled"]
        assert compiled.ii == reference.ii, workload
        assert compiled.placement == reference.placement, workload
        assert compiled.routes == reference.routes, workload
        assert compiled.stats.attempts == reference.stats.attempts
        assert compiled.stats.routing_failures \
            == reference.stats.routing_failures
        assert compiled.stats.transport_steps \
            == reference.stats.transport_steps


def test_pathfinder_incremental_matches_full_ripup():
    """Dirty-net negotiation == full rip-up across the golden seeds."""
    arch = make_spatio_temporal(4, 4)
    for workload in GOLDEN_WORKLOADS:
        seed = _seed_for(workload, "st", "pathfinder")
        dfg = get_dfg(workload)
        incremental = PathFinderMapper(seed=seed, incremental=True) \
            .map(dfg, arch)
        full = PathFinderMapper(seed=seed, incremental=False) \
            .map(dfg, arch)
        assert incremental.ii == full.ii, workload
        assert incremental.placement == full.placement, workload
        assert incremental.routes == full.routes, workload
        assert incremental.stats.attempts == full.stats.attempts


def test_pooled_and_unpooled_compiled_searches_agree():
    """The PR 2 pool invariant holds with the compiled core bound."""
    dfg = get_dfg("conv2x2")
    arch = make_spatio_temporal(4, 4)
    pooled = MappingEngine(pool=default_pool()).search(
        dfg, arch, PathFinderMapper(seed=11))
    unpooled = MappingEngine(pool=None).search(
        dfg, arch, PathFinderMapper(seed=11))
    assert pooled.placement == unpooled.placement
    assert pooled.routes == unpooled.routes


# ---------------------------------------------------------------------------
# Flat-array lock-step
# ---------------------------------------------------------------------------
def _rebound_copy(mrrg):
    """A fresh MRRG with the same usage, bound from scratch."""
    clone = MRRG(mrrg.arch, mrrg.ii)
    for (resource, _slot), nets in mrrg._usage.items():
        for net, cycles in nets.items():
            for cycle, refs in cycles.items():
                for _ in range(refs):
                    clone._charge(net, resource, cycle)
    clone.bind_core(mrrg._core)
    return clone


def test_cost_arrays_match_scratch_rebuild_after_mapper_run():
    """After a full mapper run, the incrementally maintained arrays must
    equal a from-scratch bind over the same usage dicts."""
    arch = make_spatio_temporal(4, 4)
    mapping = PathFinderMapper(seed=5).map(get_dfg("jacobi_u2"), arch)
    mrrg = _bound(arch, mapping.ii)
    for node_id, (fu_id, cycle) in mapping.placement.items():
        mrrg.place_node(node_id, fu_id, cycle)
    for route in mapping.routes.values():
        mrrg.commit_route(route)
    # Rip half the routes back out: the decrement path must stay exact.
    for index, route in sorted(mapping.routes.items())[::2]:
        mrrg.uncommit_route(route)

    clone = _rebound_copy(mrrg)
    assert mrrg._cost_base == clone._cost_base
    assert mrrg._net_charges == clone._net_charges
    assert mrrg._counts == clone._counts
    assert dict(mrrg._overused) == dict(clone._overused)
    assert mrrg._over_sum == clone._over_sum \
        == sum(used - cap for _r, _s, used, cap in mrrg.overuse())


def test_reset_restores_fresh_arrays():
    arch = make_spatio_temporal(4, 4)
    mrrg = _bound(arch, 2)
    route = route_edge(mrrg, 3, 0, 0, 5, 3)
    assert route is not None and mrrg._net_charges
    mrrg.reset()
    fresh = _bound(arch, 2)
    assert mrrg._cost_base == fresh._cost_base
    assert mrrg._net_charges == {}
    assert mrrg.occupancy_snapshot() == {}
    assert mrrg.total_overuse() == 0


def test_bind_core_rejects_ii_mismatch():
    arch = make_spatio_temporal(4, 4)
    core = routecore.route_core_for(arch, 4)
    with pytest.raises(MappingError, match="II"):
        MRRG(arch, 2).bind_core(core)


def test_cores_are_pooled_per_structural_key():
    arch_a = make_spatio_temporal(4, 4)
    arch_b = make_spatio_temporal(4, 4)      # equal structure, new object
    assert routecore.route_core_for(arch_a, 4) \
        is routecore.route_core_for(arch_b, 4)
    assert routecore.route_core_for(arch_a, 4) \
        is not routecore.route_core_for(arch_a, 5)


# ---------------------------------------------------------------------------
# Routing-failure accounting
# ---------------------------------------------------------------------------
def test_route_edge_failures_are_counted():
    arch = make_spatio_temporal(4, 4)
    mrrg = _bound(arch, 4)
    before = ROUTING.failures
    assert route_edge(mrrg, 0, 0, 0, 0, 0) is None      # zero span
    assert route_edge(mrrg, 0, 0, 0, 15, 2) is None     # needs 6 cycles
    assert route_edge(mrrg, 0, 0, 0, 0, 999) is None    # beyond MAX
    assert ROUTING.failures == before + 3
    before = ROUTING.failures
    assert route_edge(mrrg, 0, 5, 0, 6, 1) is not None
    assert ROUTING.failures == before


def test_mapping_stats_surface_routing_failures():
    """A successful search reports how many edge routings failed on the
    way; an exhausted search names the count in its error."""
    arch = make_spatio_temporal(4, 4)
    mapping = PathFinderMapper(seed=7).map(get_dfg("gesum_u2"), arch)
    assert mapping.stats.routing_failures >= 0   # populated, never None

    # An impossible II budget exhausts the search; the failure message
    # carries the routing-failure tally whenever routing was the blocker.
    with pytest.raises(MappingError, match="could not map"):
        PathFinderMapper(seed=7, max_ii=1).map(get_dfg("seidel"), arch)


def test_engine_knob_roundtrip():
    assert routecore.routing_engine() == "compiled"
    previous = set_routing_engine("reference")
    assert previous == "compiled"
    assert routecore.routing_engine() == "reference"
    with pytest.raises(ValueError, match="unknown routing engine"):
        set_routing_engine("interpretive-dance")
    set_routing_engine("compiled")
