"""C codegen for the compiled routing core's Dijkstra search.

One module is generated per ``(architecture structural signature, II)``
— exactly the :class:`~repro.mapping.routecore.RouteCore` cache key —
with the core's static tables (adjacency CSR in move-declaration order,
the per-FU goal rows) baked in as constants.  The C search mirrors
:func:`~repro.mapping.routecore.route_edge_compiled` statement for
statement: the same integer states (``place * 64 + rel``), the same
epoch-stamped scratch, both relaxation-loop variants (probe-free and
charges/history), the same push-time prune on the core's ``reach`` rows
(baked in next to the goal rows), and a binary min-heap ordered
lexicographically on ``(cost, state)``.

Bit-identity holds by construction: every heap key is distinct (a state
is only re-pushed with a strictly smaller cost), so *any* correct
min-heap pops in the same order as Python's ``heapq``; and the cost
arithmetic is pure left-associated double addition of values Python
computed (``cost_base``/history cells), which IEEE-754 evaluates
identically in C and CPython — there is no multiply to contract into an
FMA and the build never passes ``-ffast-math``.

The Python wrapper keeps everything that is already cheap or
error-prone in C: span validation, the bypass and single-state (span ==
1) fast paths, start-cost computation, charge-table flattening, and
Route/RouteStep reconstruction from the C search's place/rel/move
output arrays.  Any call the C side cannot take bit-identically
(negative cycles, list-backed history from an engine flip mid-run, heap
allocation failure) falls back to ``route_edge_compiled``.
"""

from __future__ import annotations

import ctypes
import hashlib

from repro.mapping import routecore
from repro.mapping.routecore import MAX_TRANSPORT_CYCLES, RouteCore
from repro.native import build
from repro.arch.mrrg import MRRG, Route, RouteStep

__all__ = ["native_route_search", "route_edge_native", "route_source"]

_STRIDE = MAX_TRANSPORT_CYCLES
#: Path slots per output section (the longest path has STRIDE + 1 states).
_OUT_SLOTS = _STRIDE + 1

_TEMPLATE = r"""
/* Generated by repro.native.routegen (schema v%(schema)d). Do not edit. */
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define N_PLACES %(n_places)d
#define N_RIDS %(n_rids)d
#define II %(ii)d
#define STRIDE %(stride)d
#define N_STATES (N_PLACES * STRIDE)

%(tables)s

static double dist_[N_STATES];
static int64_t stamp_[N_STATES];
static int32_t pstate_[N_STATES];
static int32_t pmove_[N_STATES];
static int64_t epoch_ = 0;

typedef struct { double cost; int32_t state; } Entry;
static Entry *heap_ = NULL;
static int64_t heap_cap_ = 0;

/* Lexicographic (cost, state) — the order of Python's heap tuples. */
static inline int less_(const Entry *a, const Entry *b) {
    return a->cost < b->cost || (a->cost == b->cost && a->state < b->state);
}

static int push_(int64_t *n, double cost, int32_t state) {
    if (*n >= heap_cap_) {
        int64_t cap = heap_cap_ ? heap_cap_ * 2 : 4096;
        Entry *grown = (Entry *)realloc(heap_, (size_t)cap * sizeof(Entry));
        if (!grown) return 0;
        heap_ = grown;
        heap_cap_ = cap;
    }
    int64_t i = (*n)++;
    heap_[i].cost = cost;
    heap_[i].state = state;
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        if (!less_(&heap_[i], &heap_[up])) break;
        Entry tmp = heap_[i]; heap_[i] = heap_[up]; heap_[up] = tmp;
        i = up;
    }
    return 1;
}

static Entry pop_(int64_t *n) {
    Entry top = heap_[0];
    heap_[0] = heap_[--(*n)];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < *n && less_(&heap_[l], &heap_[m])) m = l;
        if (r < *n && less_(&heap_[r], &heap_[m])) m = r;
        if (m == i) break;
        Entry tmp = heap_[i]; heap_[i] = heap_[m]; heap_[m] = tmp;
        i = m;
    }
    return top;
}

/* charges membership: keys are sorted flat indices (rid * II + slot). */
static inline int64_t ch_pos_(const int32_t *keys, int64_t n, int32_t key) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    return (lo < n && keys[lo] == key) ? lo : -1;
}

static inline int ch_at_(const int32_t *keys, const int64_t *off,
                         const int64_t *cyc, int64_t n,
                         int32_t key, int64_t cycle) {
    int64_t p = ch_pos_(keys, n, key);
    if (p < 0) return 0;
    for (int64_t i = off[p]; i < off[p + 1]; i++)
        if (cyc[i] == cycle) return 1;
    return 0;
}

#define RELAX(ns, nc, mv) do { \
    if (stamp_[(ns)] != epoch) { \
        stamp_[(ns)] = epoch; dist_[(ns)] = (nc); \
        pstate_[(ns)] = state; pmove_[(ns)] = (mv); \
        if (!push_(&heap_n, (nc), (ns))) return -1; \
    } else if ((nc) < dist_[(ns)]) { \
        dist_[(ns)] = (nc); \
        pstate_[(ns)] = state; pmove_[(ns)] = (mv); \
        if (!push_(&heap_n, (nc), (ns))) return -1; \
    } \
} while (0)

/* Scalars arrive packed (params: dst_fu, start_place, start_cycle,
   arrive_slot, rel_goal, probe_free, n_ch) and the path leaves through
   one buffer (places, rels and moves, STRIDE + 1 slots each, then the
   goal read): ctypes converts every argument on every call, so eight
   reused buffers cost far less than seventeen scalars and pointers. */
int64_t route_search(const double *base, const double *hist,
                     const int64_t *params, const double *start_cost_in,
                     const int32_t *ch_keys, const int64_t *ch_off,
                     const int64_t *ch_cyc, int32_t *out)
{
    int32_t dst_fu = (int32_t)params[0];
    int32_t start_place = (int32_t)params[1];
    int64_t start_cycle = params[2];
    int64_t arrive_slot = params[3];
    int32_t rel_goal = (int32_t)params[4];
    int32_t probe_free = (int32_t)params[5];
    int64_t n_ch = params[6];
    double start_cost = start_cost_in[0];
    int32_t *out_places = out;
    int32_t *out_rels = out + (STRIDE + 1);
    int32_t *out_moves = out + 2 * (STRIDE + 1);
    int32_t *out_read = out + 3 * (STRIDE + 1);
    const int32_t *goal_row = GOAL + (int64_t)dst_fu * N_PLACES;
    /* Fewest moves from each place to a consume place: a state with
       more than the transitions it has left is never pushed. */
    const int32_t *reach = REACH + (int64_t)dst_fu * N_PLACES;
    if (reach[start_place] > rel_goal) return 0;
    int64_t epoch = ++epoch_;
    int64_t heap_n = 0;

    int32_t state0 = start_place * STRIDE;
    dist_[state0] = start_cost;
    stamp_[state0] = epoch;
    pstate_[state0] = -1;
    pmove_[state0] = -1;
    if (!push_(&heap_n, start_cost, state0)) return -1;

    int32_t goal_state = -1;
    int32_t goal_read = -1;
    double goal_cost = INFINITY;

    if (probe_free) {
        while (heap_n > 0) {
            Entry e = pop_(&heap_n);
            double cost = e.cost;
            int32_t state = e.state;
            if (cost >= goal_cost) break;
            if (cost > dist_[state]) continue;
            int32_t place = state / STRIDE;
            int32_t rel = state - place * STRIDE;
            if (rel == rel_goal) {
                int32_t read = goal_row[place];
                if (read != -1) {
                    double total = (read == -2)
                        ? cost
                        : cost + base[(int64_t)read * II + arrive_slot];
                    if (total < goal_cost) {
                        goal_cost = total;
                        goal_state = state;
                        goal_read = read;
                    }
                }
                continue;
            }
            int64_t cycle = start_cycle + rel;
            int64_t cslot = cycle %% II;
            int64_t nslot = (cycle + 1) %% II;
            int32_t left = rel_goal - rel - 1;
            double new_cost;
            if (reach[place] <= left) {
                new_cost = cost + base[(int64_t)place * II + nslot];
                RELAX(state + 1, new_cost, -1);
            }
            int32_t nrel = rel + 1;
            for (int32_t a = ADJ_OFF[place]; a < ADJ_OFF[place + 1]; a++) {
                int32_t dst_place = ADJ_DST[a];
                int32_t move_rid = ADJ_RID[a];
                if (reach[dst_place] > left) continue;
                new_cost = cost + base[(int64_t)move_rid * II + cslot]
                    + base[(int64_t)dst_place * II + nslot];
                RELAX(dst_place * STRIDE + nrel, new_cost, move_rid);
            }
        }
    } else {
        while (heap_n > 0) {
            Entry e = pop_(&heap_n);
            double cost = e.cost;
            int32_t state = e.state;
            if (cost >= goal_cost) break;
            if (cost > dist_[state]) continue;
            int32_t place = state / STRIDE;
            int32_t rel = state - place * STRIDE;
            if (rel == rel_goal) {
                int32_t read = goal_row[place];
                if (read != -1) {
                    double read_cost;
                    if (read == -2) {
                        read_cost = 0.0;
                    } else {
                        int64_t ridx = (int64_t)read * II + arrive_slot;
                        if (n_ch > 0 && ch_pos_(ch_keys, n_ch,
                                                (int32_t)ridx) >= 0)
                            read_cost = 0.0;
                        else
                            read_cost = base[ridx] + hist[ridx];
                    }
                    double total = cost + read_cost;
                    if (total < goal_cost) {
                        goal_cost = total;
                        goal_state = state;
                        goal_read = read;
                    }
                }
                continue;
            }
            int64_t cycle = start_cycle + rel;
            int64_t next_cycle = cycle + 1;
            int64_t cslot = cycle %% II;
            int64_t nslot = next_cycle %% II;
            int32_t left = rel_goal - rel - 1;
            int64_t oidx;
            double occupy_cost, new_cost;
            if (reach[place] <= left) {
                oidx = (int64_t)place * II + nslot;
                if (n_ch > 0 && ch_at_(ch_keys, ch_off, ch_cyc, n_ch,
                                       (int32_t)oidx, next_cycle))
                    occupy_cost = 0.0;
                else
                    occupy_cost = base[oidx] + hist[oidx];
                new_cost = cost + occupy_cost;
                RELAX(state + 1, new_cost, -1);
            }
            int32_t nrel = rel + 1;
            for (int32_t a = ADJ_OFF[place]; a < ADJ_OFF[place + 1]; a++) {
                int32_t dst_place = ADJ_DST[a];
                int32_t move_rid = ADJ_RID[a];
                if (reach[dst_place] > left) continue;
                int64_t midx = (int64_t)move_rid * II + cslot;
                double move_cost;
                if (n_ch > 0 && ch_pos_(ch_keys, n_ch, (int32_t)midx) >= 0)
                    move_cost = 0.0;
                else
                    move_cost = base[midx] + hist[midx];
                oidx = (int64_t)dst_place * II + nslot;
                if (n_ch > 0 && ch_at_(ch_keys, ch_off, ch_cyc, n_ch,
                                       (int32_t)oidx, next_cycle))
                    occupy_cost = 0.0;
                else
                    occupy_cost = base[oidx] + hist[oidx];
                new_cost = cost + move_cost + occupy_cost;
                RELAX(dst_place * STRIDE + nrel, new_cost, move_rid);
            }
        }
    }

    if (goal_state == -1) return 0;

    /* Backward walk, then reverse — the reference step order. */
    int32_t rp[STRIDE + 1], rr[STRIDE + 1], rm[STRIDE + 1];
    int64_t n = 0;
    int32_t state = goal_state;
    for (;;) {
        int32_t place = state / STRIDE;
        rp[n] = place;
        rr[n] = state - place * STRIDE;
        rm[n] = pmove_[state];
        n++;
        int32_t parent = pstate_[state];
        if (parent == -1) break;
        state = parent;
    }
    for (int64_t i = 0; i < n; i++) {
        out_places[i] = rp[n - 1 - i];
        out_rels[i] = rr[n - 1 - i];
        out_moves[i] = rm[n - 1 - i];
    }
    *out_read = goal_read;
    return n;
}
"""


def _int_table(name: str, ctype: str, values: list[int]) -> str:
    body = ",".join(str(v) for v in values) or "0"
    return f"static const {ctype} {name}[] = {{{body}}};"


def route_source(core: RouteCore) -> str:
    """Generated C for ``core``'s search — a pure function of its tables."""
    adj_off = [0]
    adj_dst: list[int] = []
    adj_rid: list[int] = []
    for entries in core.adj:
        for dst_place, move_rid in entries:
            adj_dst.append(dst_place)
            adj_rid.append(move_rid)
        adj_off.append(len(adj_dst))
    goal_flat = [rid for row in core.goal_rid for rid in row]
    reach_flat = [dist for row in core.reach for dist in row]
    tables = "\n".join([
        _int_table("ADJ_OFF", "int32_t", adj_off),
        _int_table("ADJ_DST", "int32_t", adj_dst),
        _int_table("ADJ_RID", "int32_t", adj_rid),
        _int_table("GOAL", "int32_t", goal_flat),
        _int_table("REACH", "int32_t", reach_flat),
    ])
    return _TEMPLATE % {
        "schema": build.NATIVE_SCHEMA_VERSION,
        "n_places": len(core.adj),
        "n_rids": core.n_rids,
        "ii": core.ii,
        "stride": _STRIDE,
        "tables": tables,
    }


class NativeRouteSearch:
    """Loaded search function plus reusable ctypes call buffers."""

    __slots__ = ("fn", "zero_hist", "params", "start_cost", "out",
                 "_empty_i32", "_empty_i64")

    def __init__(self, lib: ctypes.CDLL, core: RouteCore) -> None:
        fn = lib.route_search
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int32),
        ]
        self.fn = fn
        #: All-zero flat history for probe-free / history-free calls.
        self.zero_hist = (ctypes.c_double * (core.n_rids * core.ii))()
        self.params = (ctypes.c_int64 * 7)()
        self.start_cost = (ctypes.c_double * 1)()
        self.out = (ctypes.c_int32 * (3 * _OUT_SLOTS + 1))()
        self._empty_i32 = (ctypes.c_int32 * 1)()
        self._empty_i64 = (ctypes.c_int64 * 1)()


def native_route_search(core: RouteCore) -> NativeRouteSearch | None:
    """The (cached) native search for ``core``; ``None`` when unavailable."""
    cached = getattr(core, "_native_search", None)
    if cached is not None and cached[0] == build.generation():
        return cached[1]
    source = route_source(core)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    lib = build.ensure_module("route", digest, source)
    search = NativeRouteSearch(lib, core) if lib is not None else None
    core._native_search = (build.generation(), search)
    return search


def _as_cost_buffer(mrrg: MRRG) -> ctypes.Array:
    """``mrrg._cost_base`` as a ctypes double array, converting once.

    :meth:`MRRG.bind_core` builds the cost array as a Python list; the
    first native route over a given MRRG swaps it for a ctypes array C
    can read zero-copy.  Item and slice assignment behave identically,
    so all the incremental bookkeeping in :mod:`repro.arch.mrrg` (and
    the compiled Python search, should the engine flip back) keeps
    working on the converted array unchanged.
    """
    base = mrrg._cost_base
    if isinstance(base, ctypes.Array):
        return base
    converted = (ctypes.c_double * len(base))(*base)
    mrrg._cost_base = converted
    return converted


def route_edge_native(mrrg: MRRG, core: RouteCore, net: int, src_fu: int,
                      depart_cycle: int, dst_fu: int, arrive_cycle: int,
                      hist, commit: bool) -> Route | None:
    """Native-search twin of ``route_edge_compiled`` (same signature).

    Delegates to the compiled Python search whenever the native module
    is unavailable or the call shape is one the C side does not take
    (span <= 1 fast paths, negative cycles, list-backed history) — the
    delegate is bit-identical, so callers never observe the difference.
    """
    search = native_route_search(core)
    if search is None:
        return routecore.route_edge_compiled(
            mrrg, core, net, src_fu, depart_cycle, dst_fu, arrive_cycle,
            hist, commit)
    span = arrive_cycle - depart_cycle
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return None
    if span == 1 or depart_cycle < 0:
        # Bypass / single-state routes never search; negative cycles
        # would change C's %% semantics.  Both stay on the Python core.
        return routecore.route_edge_compiled(
            mrrg, core, net, src_fu, depart_cycle, dst_fu, arrive_cycle,
            hist, commit)

    if hist is core.zero_hist:
        hist_buf = search.zero_hist
    elif isinstance(hist, ctypes.Array):
        hist_buf = hist
    else:
        # List-backed history (engine flipped to native mid-negotiation):
        # converting per call would not pay, so keep the Python search.
        return routecore.route_edge_compiled(
            mrrg, core, net, src_fu, depart_cycle, dst_fu, arrive_cycle,
            hist, commit)

    ii = core.ii
    base = _as_cost_buffer(mrrg)
    start_place = core.produce_place[src_fu]
    start_cycle = depart_cycle + 1

    charges = mrrg._net_charges.get(net) or None
    has_charges = charges is not None

    sslot = start_cycle % ii
    sidx = start_place * ii + sslot
    if has_charges and sidx in charges and start_cycle in charges[sidx]:
        start_cost = 0.0
    else:
        start_cost = base[sidx] + hist_buf[sidx]

    if has_charges:
        keys = sorted(charges)
        offs = [0]
        cycles: list[int] = []
        for key in keys:
            cycles.extend(charges[key])
            offs.append(len(cycles))
        ch_keys = (ctypes.c_int32 * len(keys))(*keys)
        ch_off = (ctypes.c_int64 * len(offs))(*offs)
        ch_cyc = (ctypes.c_int64 * len(cycles))(*cycles) if cycles \
            else search._empty_i64
        n_ch = len(keys)
    else:
        ch_keys = search._empty_i32
        ch_off = search._empty_i64
        ch_cyc = search._empty_i64
        n_ch = 0

    probe_free = 1 if (not has_charges and hist is core.zero_hist) else 0

    search.params[:] = (dst_fu, start_place, start_cycle,
                        arrive_cycle % ii, span - 1, probe_free, n_ch)
    search.start_cost[0] = start_cost
    out = search.out
    n = search.fn(base, hist_buf, search.params, search.start_cost,
                  ch_keys, ch_off, ch_cyc, out)
    if n < 0:  # heap allocation failure — retreat to the Python search
        return routecore.route_edge_compiled(
            mrrg, core, net, src_fu, depart_cycle, dst_fu, arrive_cycle,
            hist, commit)
    if n == 0:
        return None

    key_of = core.key_of
    # RouteStep(kind, resource, cycle) without the NamedTuple
    # constructor's Python-level frame; each section of the output
    # buffer is read with one slice rather than per-item ctypes indexing.
    new_step = tuple.__new__
    steps: list[RouteStep] = []
    places: list[tuple[int, int]] = []
    slots = _OUT_SLOTS
    for place, rel, move_rid in zip(out[:n], out[slots:slots + n],
                                    out[2 * slots:2 * slots + n]):
        cycle = start_cycle + rel
        if move_rid != -1:
            steps.append(new_step(RouteStep,
                                  ("move", key_of[move_rid], cycle - 1)))
        steps.append(new_step(RouteStep, ("occupy", key_of[place], cycle)))
        places.append((place, cycle))

    read = out[3 * slots]
    if read != -2:
        steps.append(new_step(RouteStep,
                              ("read", key_of[read], arrive_cycle)))

    # Positional Route(net, steps, src_fu, dst_fu, depart_cycle,
    # arrive_cycle, places): keywords cost more.
    route = Route(net, tuple(steps), src_fu, dst_fu, depart_cycle,
                  arrive_cycle, tuple(places))
    if commit:
        mrrg.commit_route(route)
    return route
