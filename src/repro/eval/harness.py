"""The cached evaluation pipeline: workload x architecture x mapper.

``evaluate_kernel(workload, arch_key, mapper_key)`` maps the workload,
derives cycles over the full iteration space (performance is deterministic
at compile time, as the paper notes), extracts activity statistics, and
prices power/energy/area.  Results are memoized per process and — when a
persistent store is active (``configure_store`` or ``$REPRO_CACHE_DIR``)
— shared across processes and runs through
:class:`repro.eval.cache.ResultStore`, so every benchmark, experiment and
sweep worker pays for each configuration exactly once.

Baseline methodology follows the paper: the spatio-temporal baselines are
mapped with both PathFinder and simulated annealing and the better result
is kept ("We use two mappers for these baselines and select the one with
higher performance") — the ``best`` composite entry of the mapper
registry.  Mapper dispatch goes through :mod:`repro.mapping.engine`: the
registry is the single source of truth for mapper keys, so adding a
mapper never touches this module.  Mapper seeds come from a *stable*
digest of the configuration (not the per-process-salted builtin
``hash``), so results are bit-identical across processes — the property
the persistent store and the parallel sweep engine rely on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from repro.arch.base import Architecture
from repro.arch.plaid import make_plaid
from repro.arch.spatial import make_spatial
from repro.arch.spatio_temporal import make_spatio_temporal
from repro.arch.specialize import make_plaid_ml, make_st_ml
from repro.errors import ReproError
from repro.eval import cache as result_cache
from repro.mapping import engine as mapping_engine
from repro.power.model import (
    ActivityFactors, AreaReport, PowerReport, activity_from_mapping,
    activity_from_spatial, fabric_area, fabric_power,
)
from repro.power.report import energy_nj, perf_per_area
from repro.utils.signature import arch_signature, canonical_json
from repro.workloads.registry import get_dfg, get_workload

#: Architecture keys the experiments use.
ARCH_KEYS = ("st", "spatial", "plaid", "plaid3x3", "st-ml", "plaid-ml")


@lru_cache(maxsize=None)
def build_arch(key: str) -> Architecture:
    """Architecture instance per key (cached: fabrics are immutable)."""
    builders = {
        "st": lambda: make_spatio_temporal(4, 4),
        "st6x6": lambda: make_spatio_temporal(6, 6),
        "spatial": lambda: make_spatial(4, 4),
        "plaid": lambda: make_plaid(2, 2),
        "plaid3x3": lambda: make_plaid(3, 3),
        "st-ml": lambda: make_st_ml(4, 4),
        "plaid-ml": lambda: make_plaid_ml(2, 2),
    }
    try:
        return builders[key]()
    except KeyError:
        raise ReproError(f"unknown architecture key '{key}'") from None


@dataclass(frozen=True)
class KernelResult:
    """One (workload, architecture, mapper) evaluation."""

    workload: str
    arch_key: str
    mapper: str
    ii: int                     # steady-state cycles per iteration point(s)
    cycles: int                 # full iteration space
    makespan: int
    activity: ActivityFactors
    power: PowerReport
    area: AreaReport
    energy: float               # nJ over the full run

    @property
    def perf_per_area(self) -> float:
        return perf_per_area(self.cycles, self.area)


def _seed_for(workload: str, arch_key: str, mapper_key: str) -> int:
    """Stable mapper seed for one configuration.

    Deliberately *not* the builtin ``hash``: string hashing is salted per
    process (``PYTHONHASHSEED``), which would give every run and every
    sweep worker a different seed and make results uncacheable.  CRC-32
    of the key string is identical everywhere, forever.
    """
    key = f"{workload}\x1f{arch_key}\x1f{mapper_key}"
    return (zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF) or 1


def default_mapper(arch_key: str) -> str:
    """The paper's methodology per architecture."""
    if arch_key.startswith("plaid"):
        return "plaid"
    if arch_key == "spatial":
        return "spatial"
    return "best"


@dataclass
class EvalStats:
    """Where results came from this process (sweeps report these)."""

    computed: int = 0           # full map+price evaluations run here
    memo_hits: int = 0          # served from the in-process memo
    store_hits: int = 0         # served from the persistent store

    def reset(self) -> None:
        self.computed = self.memo_hits = self.store_hits = 0


#: In-process memo: (workload, arch_key, resolved mapper_key) -> result.
_MEMO: dict[tuple[str, str, str], KernelResult] = {}

#: Deterministic failures (mapping is seeded, so a failing configuration
#: fails identically every time) — memoized so sweeps and figures don't
#: re-run doomed mapping attempts.
_FAILED: dict[tuple[str, str, str], ReproError] = {}

#: Persistent layer; ``None`` with ``_STORE_RESOLVED`` means "disabled".
_STORE: result_cache.ResultStore | None = None
_STORE_RESOLVED = False

EVAL_STATS = EvalStats()

#: Fingerprint memo: configs are immutable between clear_caches() calls
#: (build_arch is cached the same way), and sharding/manifest checks
#: fingerprint whole grids at once — no point re-walking the arch
#: signature per call.
_FP_MEMO: dict[tuple[str, str, str], str] = {}

#: arch key -> ``canonical_json(arch_signature(...))``.  Every cell on a
#: fabric splices the same text into its fingerprint, so each fabric is
#: walked and serialized once, not once per cell.  Keyed by arch key like
#: ``build_arch`` (never by instance: a deep copy is a different fabric
#: once edited) and cleared together with it.
_ARCH_JSON_MEMO: dict[str, str] = {}


def configure_store(store: result_cache.ResultStore | str | None
                    ) -> result_cache.ResultStore | None:
    """Install the persistent result store (``None`` disables it).

    Accepts a ready :class:`ResultStore` or a directory path.  An
    explicit setting — including the explicit ``None`` — overrides the
    ``$REPRO_CACHE_DIR`` environment default until :func:`clear_caches`.
    """
    global _STORE, _STORE_RESOLVED
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = result_cache.ResultStore(store)
    _STORE = store
    _STORE_RESOLVED = True
    return _STORE


def active_store() -> result_cache.ResultStore | None:
    """The persistent store in effect (explicit beats environment)."""
    global _STORE, _STORE_RESOLVED
    if not _STORE_RESOLVED:
        _STORE = result_cache.default_store()
        _STORE_RESOLVED = True
    return _STORE


def resolve_mapper(arch_key: str, mapper_key: str | None) -> str:
    """Canonical mapper key (``None`` -> the paper's default)."""
    return mapper_key or default_mapper(arch_key)


def evaluation_fingerprint(workload: str, arch_key: str,
                           mapper_key: str | None = None) -> str:
    """Persistent-store key for one configuration."""
    mapper_key = resolve_mapper(arch_key, mapper_key)
    key = (workload, arch_key, mapper_key)
    cached = _FP_MEMO.get(key)
    if cached is not None:
        return cached
    spec = get_workload(workload)
    arch_json = _ARCH_JSON_MEMO.get(arch_key)
    if arch_json is None:
        arch_json = canonical_json(arch_signature(build_arch(arch_key)))
        _ARCH_JSON_MEMO[arch_key] = arch_json
    seed = _seed_for(workload, arch_key, mapper_key)
    fp = result_cache.fingerprint(spec, arch_json, mapper_key, seed)
    _FP_MEMO[key] = fp
    return fp


def try_fingerprint(workload: str, arch_key: str,
                    mapper_key: str | None = None) -> str | None:
    """:func:`evaluation_fingerprint`, tolerant of unresolvable cells.

    A grid may name an unknown workload or architecture (the sweep
    reports those as per-cell failures rather than refusing the run);
    such cells have no fingerprint — callers that key on fingerprints
    (shard assignment, manifests) get ``None`` and fall back to a digest
    of the raw cell key.
    """
    try:
        return evaluation_fingerprint(workload, arch_key, mapper_key)
    except ReproError:
        return None


def evaluate_kernel(workload: str, arch_key: str,
                    mapper_key: str | None = None, *,
                    use_store: bool = True) -> KernelResult:
    """Map + price one workload on one architecture.

    Lookup order: in-process memo, then the persistent store (when one
    is active and ``use_store`` holds), then a full evaluation — which
    is written back to every enabled layer.  Identical calls in one
    process return the same object.  ``use_store=False`` (the sweep
    engine's ``--no-cache``) bypasses the persistent store both ways
    while keeping in-process memoization.
    """
    mapper_key = resolve_mapper(arch_key, mapper_key)
    key = (workload, arch_key, mapper_key)
    cached = _MEMO.get(key)
    if cached is not None:
        EVAL_STATS.memo_hits += 1
        return cached
    failed = _FAILED.get(key)
    if failed is not None:
        EVAL_STATS.memo_hits += 1
        raise failed

    store = active_store() if use_store else None
    fp = None
    if store is not None:
        fp = evaluation_fingerprint(workload, arch_key, mapper_key)
        stored = store.get(fp)
        if isinstance(stored, result_cache.CachedFailure):
            error = stored.to_error()
            EVAL_STATS.store_hits += 1
            _FAILED[key] = error
            raise error
        if stored is not None:
            EVAL_STATS.store_hits += 1
            _MEMO[key] = stored
            return stored

    try:
        result = _evaluate_uncached(workload, arch_key, mapper_key)
    except ReproError as error:
        _FAILED[key] = error
        if store is not None and fp is not None:
            store.put_failure(fp, error)
        raise
    EVAL_STATS.computed += 1
    _MEMO[key] = result
    if store is not None and fp is not None:
        store.put(fp, result)
    return result


def _evaluate_uncached(workload: str, arch_key: str,
                       mapper_key: str) -> KernelResult:
    """The actual pipeline: map, derive cycles, price power/energy/area."""
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)

    def seed_for(key: str) -> int:
        # Composites ("best") run each candidate with the seed its
        # standalone evaluation would use, so their result is exactly
        # min over the individual mapper results.
        return _seed_for(workload, arch_key, key)

    mapping = mapping_engine.map_kernel(mapper_key, dfg, arch, seed_for)
    if mapper_key == "spatial":
        cycles = mapping.total_cycles()
        ii = mapping.ii_sum
        makespan = max((phase.depth for phase in mapping.phases), default=0)
        activity = activity_from_spatial(mapping)
    else:
        cycles = mapping.total_cycles()
        ii = mapping.ii
        makespan = mapping.makespan
        activity = activity_from_mapping(mapping)

    power = fabric_power(arch, activity)
    area = fabric_area(arch)
    return KernelResult(
        workload=workload,
        arch_key=arch_key,
        mapper=mapper_key,
        ii=ii,
        cycles=cycles,
        makespan=makespan,
        activity=activity,
        power=power,
        area=area,
        energy=energy_nj(power, cycles),
    )


def simulate_kernel(workload: str, arch_key: str,
                    mapper_key: str | None = None, *,
                    iterations: int | None = 8, fill: int = 3,
                    engine: str | None = None, trace=None):
    """Map one configuration and run the cycle-accurate simulator.

    Uses the same registry dispatch and stable per-configuration seeds
    as :func:`evaluate_kernel`, so the simulated mapping is exactly the
    one the metrics pipeline prices.  ``engine`` selects the compiled
    schedule, the vectorized ``numpy`` replay of the same tables, the
    generated-C ``native`` replay (:mod:`repro.native`), or
    the interpreted ``reference`` loop — all bit-identical by
    invariant; ``None`` defers to the process-wide setting
    (``REPRO_SIM_ENGINE``, default compiled).  The knob exists for
    conformance and benchmarking.  Spatial fabrics run the phased
    functional simulator; every style returns the shared
    :class:`~repro.sim.engine.SimulationReport`.
    """
    from repro.ir.interpreter import DFGInterpreter
    from repro.sim import CGRASimulator, SIM_ENGINES, SpatialSimulator

    if engine is not None and engine not in SIM_ENGINES:
        raise ReproError(f"unknown simulation engine '{engine}' "
                         f"({', '.join(SIM_ENGINES)})")
    mapper_key = resolve_mapper(arch_key, mapper_key)
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)

    def seed_for(key: str) -> int:
        return _seed_for(workload, arch_key, key)

    mapping = mapping_engine.map_kernel(mapper_key, dfg, arch, seed_for)
    memory = DFGInterpreter(dfg).prepare_memory(fill=fill)
    if mapper_key == "spatial":
        return SpatialSimulator(mapping, trace=trace).simulate(
            memory, iterations=iterations, engine=engine)
    simulator = CGRASimulator(mapping, trace=trace)
    return simulator.run(memory, iterations=iterations, engine=engine)


def seed_memo(result: KernelResult) -> None:
    """Install an externally computed result (sweep workers hand results
    back to the parent through this)."""
    _MEMO[(result.workload, result.arch_key, result.mapper)] = result


def seed_failure(workload: str, arch_key: str, mapper_key: str,
                 error: ReproError) -> None:
    """Record a deterministic failure observed in a sweep worker."""
    _FAILED[(workload, arch_key, mapper_key)] = error


def failure_for(workload: str, arch_key: str,
                mapper_key: str | None = None) -> ReproError | None:
    """The memoized failure for this configuration, if any."""
    return _FAILED.get((workload, arch_key,
                        resolve_mapper(arch_key, mapper_key)))


def memo_contains(workload: str, arch_key: str,
                  mapper_key: str | None = None) -> bool:
    """Whether the in-process memo already holds this configuration."""
    return (workload, arch_key,
            resolve_mapper(arch_key, mapper_key)) in _MEMO


def memo_lookup(workload: str, arch_key: str,
                mapper_key: str | None = None) -> "KernelResult | None":
    """The memoized result for this configuration, or ``None``.

    A read-only peek: unlike :func:`evaluate_kernel` it can never
    trigger an evaluation, so callers that must account for cache hits
    themselves (the result service's admission path) stay side-effect
    free.
    """
    return _MEMO.get((workload, arch_key,
                      resolve_mapper(arch_key, mapper_key)))


def clear_caches() -> None:
    """Drop memoized evaluations (tests that tweak parameters use this).

    Also detaches any configured persistent store so tests can't leak a
    tmpdir store into each other.
    """
    global _STORE, _STORE_RESOLVED
    _MEMO.clear()
    _FAILED.clear()
    _FP_MEMO.clear()
    _STORE = None
    _STORE_RESOLVED = False
    EVAL_STATS.reset()
    build_arch.cache_clear()
    _ARCH_JSON_MEMO.clear()     # derived from build_arch's instances
    from repro.workloads import registry
    registry.clear_dfg_caches()   # variant expansion multiplies cached DFGs
    from repro.mapping import race
    race.clear_advisor()    # budget history is derived from the store
    from repro.native import build as native_build
    native_build.clear_native_caches()   # re-resolve toolchain/cache dir
