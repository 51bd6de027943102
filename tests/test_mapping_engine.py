"""Tests for the unified mapping engine: registry, II-search driver, and
the MRRG pool's "reset is indistinguishable from reconstruction" contract.
"""

import copy

import pytest

from repro.arch import make_plaid, make_spatio_temporal
from repro.arch.mrrg import MRRG
from repro.errors import MappingError, ReproError
from repro.ir.ops import Opcode
from repro.eval.harness import _seed_for
from repro.mapping import (
    MapperStrategy, MappingEngine, MRRGPool, PathFinderMapper, PlaidMapper,
    SimulatedAnnealingMapper, available_mappers, get_mapper, map_kernel,
    register_mapper,
)
from repro.mapping import routecore
from repro.mapping.router import router_adjacency, transport_latency_table
from repro.utils.signature import arch_structural_key
from repro.workloads import get_dfg

#: The golden 5x3 grid's workloads (tests/data/golden_small_grid.json).
GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]

#: (mapper key, mapper class, arch key, arch factory): each temporal
#: mapper on the fabric the golden grid evaluates it on.
MAPPER_CASES = [
    ("pathfinder", PathFinderMapper, "st", lambda: make_spatio_temporal(4, 4)),
    ("sa", SimulatedAnnealingMapper, "st", lambda: make_spatio_temporal(4, 4)),
    ("plaid", PlaidMapper, "plaid", lambda: make_plaid(2, 2)),
]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_lists_all_mappers():
    keys = {info.key for info in available_mappers()}
    assert {"pathfinder", "sa", "plaid", "greedy", "spatial",
            "best"} <= keys


def test_registry_kinds():
    assert get_mapper("pathfinder").kind == "temporal"
    assert get_mapper("spatial").kind == "spatial"
    best = get_mapper("best")
    assert best.kind == "composite"
    assert best.candidates == ("pathfinder", "sa")


def test_unknown_mapper_key_raises():
    with pytest.raises(ReproError, match="unknown mapper key 'bogus'"):
        get_mapper("bogus")


def test_composite_entry_has_no_factory():
    with pytest.raises(ReproError, match="composite"):
        get_mapper("best").make(seed=1)


def test_register_mapper_is_idempotent():
    info = get_mapper("pathfinder")
    again = register_mapper("pathfinder", PathFinderMapper,
                            description=info.description)
    assert get_mapper("pathfinder") is again
    assert again.factory is PathFinderMapper


def test_available_mappers_kind_filter():
    temporal = available_mappers(kind="temporal")
    assert [info.key for info in temporal] \
        == sorted(info.key for info in temporal)
    assert all(info.kind == "temporal" for info in temporal)
    assert {"pathfinder", "sa", "plaid", "greedy"} \
        == {info.key for info in temporal}


# ---------------------------------------------------------------------------
# map_kernel / composite selection
# ---------------------------------------------------------------------------
def test_map_kernel_best_is_min_of_candidates():
    dfg = get_dfg("dwconv")
    arch = make_spatio_temporal(4, 4)

    def seed_for(key):
        return _seed_for("dwconv", "st", key)

    best = map_kernel("best", dfg, arch, seed_for)
    candidates = []
    for key in ("pathfinder", "sa"):
        candidates.append(map_kernel(key, dfg, arch, seed_for))
    assert best.total_cycles() == min(c.total_cycles() for c in candidates)


# ---------------------------------------------------------------------------
# MRRG reset contract
# ---------------------------------------------------------------------------
def test_mrrg_reset_matches_reconstruction():
    dfg = get_dfg("dwconv")
    arch = make_spatio_temporal(4, 4)
    mapping = PathFinderMapper(seed=3).map(dfg, arch)

    used = mapping.rebuild_mrrg()       # holds placements + route charges
    assert used.occupancy_snapshot()    # non-trivial state to clear
    used.reset()

    fresh = MRRG(arch, mapping.ii)
    assert used.occupancy_snapshot() == fresh.occupancy_snapshot() == {}
    assert used.overuse() == fresh.overuse() == []
    assert used.utilization() == fresh.utilization()
    for fu in arch.fus:
        for cycle in range(mapping.ii):
            assert used.fu_free(fu.fu_id, cycle)
    # A reset graph must replay the full mapping exactly like a fresh one.
    for node_id, (fu_id, cycle) in mapping.placement.items():
        used.place_node(node_id, fu_id, cycle)
        fresh.place_node(node_id, fu_id, cycle)
    for route in mapping.routes.values():
        used.commit_route(route)
        fresh.commit_route(route)
    assert used.occupancy_snapshot() == fresh.occupancy_snapshot()
    assert used.overuse() == fresh.overuse() == []


def test_mrrg_usage_counts_survive_charge_discharge_cycles():
    arch = make_spatio_temporal(4, 4)
    mrrg = MRRG(arch, 2)
    resource = ("place", 0)
    # Two routes of one fanout net share a segment: one capacity charge,
    # refcounted until the LAST sharing route releases it.
    mrrg._charge(7, resource, 4)
    mrrg._charge(7, resource, 4)
    assert mrrg.usage_count(resource, 0) == 1
    mrrg._discharge(7, resource, 4)
    assert mrrg.usage_count(resource, 0) == 1
    mrrg._discharge(7, resource, 4)
    assert mrrg.usage_count(resource, 0) == 0
    assert mrrg.occupancy_snapshot() == {}


# ---------------------------------------------------------------------------
# Pooled vs fresh searches are bit-identical (the tentpole invariant)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mapper_key,mapper_cls,arch_key,arch_factory",
                         MAPPER_CASES)
def test_pooled_search_bit_identical_to_fresh(mapper_key, mapper_cls,
                                              arch_key, arch_factory):
    """Fresh-vs-pooled MRRGs produce bit-identical mappings (placement,
    routes, II, stats) for all three mappers across the golden grid
    seeds."""
    arch = arch_factory()
    pool = MRRGPool()
    pooled = MappingEngine(pool=pool)
    fresh = MappingEngine(pool=None)
    for workload in GOLDEN_WORKLOADS:
        dfg = get_dfg(workload)
        seed = _seed_for(workload, arch_key, mapper_key)
        with_pool = pooled.search(dfg, arch, mapper_cls(seed=seed))
        without = fresh.search(dfg, arch, mapper_cls(seed=seed))
        assert with_pool.ii == without.ii
        assert with_pool.placement == without.placement
        assert with_pool.routes == without.routes
        assert with_pool.stats.attempts == without.stats.attempts
        assert with_pool.stats.routed_edges == without.stats.routed_edges
        assert with_pool.stats.bypass_edges == without.stats.bypass_edges
        assert with_pool.stats.transport_steps \
            == without.stats.transport_steps
    # The pooled engine actually pooled: instances were recycled either
    # within a search (in-place resets) or across searches (adoptions).
    assert pool.stats.resets > 0 or pool.stats.adopted > 0
    assert pool.stats.created > 0


def test_pool_recycles_across_searches():
    arch = make_spatio_temporal(4, 4)
    pool = MRRGPool()
    engine = MappingEngine(pool=pool)
    dfg = get_dfg("dwconv")
    engine.search(dfg, arch, PathFinderMapper(seed=1))
    created_first = pool.stats.created
    engine.search(dfg, arch, PathFinderMapper(seed=1))
    assert pool.stats.adopted > 0
    assert pool.stats.created == created_first   # nothing rebuilt


def test_edited_deep_copy_gets_its_own_key_and_tables():
    """Regression: the tables memoized on a fabric survived
    ``copy.deepcopy``, so a copy edited after the original's key was
    computed reported that key, and the pool and the route-core cache
    handed it the original's compiled state."""
    arch = make_plaid(2, 2)
    key = arch_structural_key(arch)
    adjacency = router_adjacency(arch)
    transport_latency_table(arch)
    arch.fus_supporting(Opcode.ADD)
    arch.moves_from(0)
    core = routecore.route_core_for(arch, 2)
    pool = MRRGPool()
    pool.release(arch, 2, pool.acquire(arch, 2))

    recapped = copy.deepcopy(arch)
    assert not [name for name in vars(recapped) if name.startswith("_")]
    resource = next(iter(recapped.resource_caps))
    recapped.resource_caps[resource] += 1
    assert arch_structural_key(recapped) != key
    assert routecore.route_core_for(recapped, 2) is not core
    mrrg = pool.acquire(recapped, 2)
    assert mrrg.arch is recapped
    assert mrrg.capacity(("res", resource)) \
        == arch.resource_caps[resource] + 1

    rewired = copy.deepcopy(arch)
    rewired.moves.pop()
    assert arch_structural_key(rewired) != key
    assert router_adjacency(rewired) != adjacency
    assert arch_structural_key(arch) == key      # the original is intact
    assert router_adjacency(arch) is adjacency


# ---------------------------------------------------------------------------
# II-search driver behaviour
# ---------------------------------------------------------------------------
def test_engine_failure_message_and_attempt_budget():
    from repro.mapping import minimum_ii

    dfg = get_dfg("atax_u2")
    arch = make_spatio_temporal(4, 4)
    mii = minimum_ii(dfg, arch)
    assert mii > 1                      # memory-bound kernel
    mapper = PathFinderMapper(seed=1, max_ii=mii - 1, restarts=2)
    with pytest.raises(MappingError,
                       match=rf"PathFinder could not map .* II <= {mii - 1}"):
        mapper.map(dfg, arch)


def test_strategy_base_requires_attempt_ii():
    class Incomplete(MapperStrategy):
        name = "incomplete"

    with pytest.raises(NotImplementedError):
        Incomplete().map(get_dfg("dwconv"), make_spatio_temporal(4, 4))


def test_new_strategy_registers_and_maps():
    """Adding a mapper = one strategy class + one register_mapper call."""

    class EagerPathFinder(PathFinderMapper):
        name = "eager-pf"
        failure_label = "eager PathFinder"

    register_mapper("eager-pf", EagerPathFinder,
                    description="test-only pathfinder variant")
    try:
        dfg = get_dfg("dwconv")
        arch = make_spatio_temporal(4, 4)
        mapping = map_kernel("eager-pf", dfg, arch, lambda key: 5)
        mapping.validate()
        assert mapping.stats.mapper == "eager-pf"
        assert "eager-pf" in {info.key for info in available_mappers()}
    finally:
        from repro.mapping.engine import _REGISTRY
        _REGISTRY.pop("eager-pf", None)
