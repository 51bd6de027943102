"""Host-speed calibration for the benchmark's wall-clock metrics.

The benchmark host shares its CPUs with other machines, and its speed
changes in phases of ten seconds to minutes: the same warm-grid pass took
75 ms and 164 ms within one minute, while its ratio to the fixed loop in
:func:`probe_host` stayed within 4% of 19 except across phase changes.  So every timed interval
is rescaled to the reference host speed: ``seconds * REF_PROBE_S / probe``,
where ``probe`` is the mean of the probes taken just before and just after
the interval.  On an idle reference host the factor is ~1.  The raw wall
times are reported next to the calibrated ones.
"""

from __future__ import annotations

import heapq
import time

#: :func:`probe_host` on the reference host (2 shared CPUs, Python 3.11.7)
#: in its fast phase.
REF_PROBE_S = 0.004
#: Probe at most this often while passes run (each probe takes ~15 ms).
PROBE_INTERVAL_S = 0.5


def _probe_once() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(6000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    sorted(f"{key}:{value}" for key, value in table.items())
    return time.perf_counter() - start


def probe_host() -> float:
    """Seconds a fixed pure-Python loop (dict, heap, sort, str) takes now;
    the best of three, so a single preemption does not count."""
    return min(_probe_once() for _ in range(3))


class HostClock:
    """Calibrates timed units once the probe after them is taken.

    ``add(apply)`` queues a unit; ``apply(factor)`` is called with the
    unit's calibration factor at the next probe, which happens once
    ``PROBE_INTERVAL_S`` has passed (or on :meth:`flush`).  Units are timed
    between probes, so probe time is never part of a unit.
    """

    def __init__(self, probe: float | None = None) -> None:
        """``probe``: a probe just taken (by the parent, before spawning
        this process); by default one is taken now."""
        self.probes = [probe_host() if probe is None else probe]
        self._last = time.perf_counter()
        self._pending: list = []

    def add(self, apply) -> None:
        self._pending.append(apply)
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.flush()

    def timed(self, totals: dict, key: str, seconds: float) -> None:
        """Add ``seconds`` to ``totals["raw_" + key]`` now, and calibrated
        to ``totals[key]`` at the next probe."""
        totals["raw_" + key] = totals.get("raw_" + key, 0.0) + seconds
        totals.setdefault(key, 0.0)

        def calibrate(factor: float) -> None:
            totals[key] += seconds * factor

        self.add(calibrate)

    def flush(self) -> None:
        if not self._pending:
            return
        self.probes.append(probe_host())
        factor = REF_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        for apply in self._pending:
            apply(factor)
        self._pending.clear()
        self._last = time.perf_counter()
