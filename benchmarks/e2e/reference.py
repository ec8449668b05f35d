"""The host's speed, sampled while a cell runs.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of percent for seconds to minutes at a time (a busy neighbour on
the sibling hyper-thread or in the shared cache; CPU time equals wall
time throughout, so it is not descheduling).  The same deterministic
cell read 5.1 s to 11.4 s of wall clock within one half-hour, and no
amount of repetition inside one run averages a minute-long slow phase
out.

So every execution interleaves its timed work with *ticks*: one fixed
piece of pure-Python work (dict, list, heap, attribute and method-call
traffic -- the simulator's instruction mix, none of its code) that
allocates nothing the garbage collector tracks.  The mean tick over
``NOMINAL_TICK_S`` is the host's *slowdown* during that execution, and
the host times the benchmark gates (``setup_s``, ``host_us_per_commit``)
are wall clock divided by it: time at the reference host speed.  A
change to the system cannot move the ticks, so a real gain or loss shows
in full; a slow phase of the host, which slows both, mostly cancels
(same-cell repeats across quiet and slow phases: raw spread 7-13 %,
normalised 3 %).  The raw wall-clock values stay in every result file.
"""

from __future__ import annotations

import heapq
import time

#: One tick on the builder's box (Xeon @ 2.10 GHz, Python 3.11) in a
#: quiet phase.  A unit conversion, not a tunable: changing it rescales
#: every normalised host metric, so it never changes.
NOMINAL_TICK_S = 0.0032

_STEPS = 5000


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> int:
        self.count += 1
        self.total += value
        return self.count


_CELLS = [_Cell() for _ in range(64)]
_TABLE = {key: key for key in range(4096)}
_HEAP = list(range(256))


def _work(steps: int) -> None:
    push, pop = heapq.heappush, heapq.heappop
    cells, table, heap = _CELLS, _TABLE, _HEAP
    for cell in cells:
        cell.count = 0
    x = 1
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cell = cells[x & 63]
        n = cell.add(i * 0.5)
        table[x & 4095] = n
        push(heap, (x & 0xFFFFF) + n)
        pop(heap)
        if table.get(i & 4095, 0) > n:
            cell.total -= 1.0


def tick() -> float:
    """Do the reference work once; the seconds it took.

    A tenth of the work is done first, untimed, to pull the tick's own
    data back into the cache the timed code around it has just used.
    """
    _work(_STEPS // 10)
    started = time.perf_counter()
    _work(_STEPS)
    return time.perf_counter() - started


def slowdown(ticks: list[float]) -> float:
    """Host slowdown over the span the ticks were spread across."""
    return sum(ticks) / len(ticks) / NOMINAL_TICK_S
