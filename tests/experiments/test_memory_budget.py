"""Peak-memory budgets for the storage stack.

Two regression gates:

* a **process-level budget** for the 1M-tuple ``production_scale``
  dataset build, measured by ``VmHWM`` in a fresh interpreter so
  the number is the stack's, not the test runner's.  The column store
  and dense map build this in ~170 MB; an object per tuple and a dict
  entry per key needed roughly twice that, so the 250 MB ceiling
  catches any slide back;
* a **tracemalloc ceiling** at 100k tuples: one stored tuple plus its
  map entry stay under ``BENCH_scale.json``'s full-scale bounds (160
  B/tuple + 8 B/key) — once a ratio against the dict-of-Record stack
  (328.8 B), hence the test's name — in tier-1 at a size that runs in
  seconds.
"""

import tracemalloc

from repro.routing import PartitionMap
from repro.storage import PartitionStore, Record

from ..isolated_child import run_isolated

#: KB ceiling for building the 1M-tuple preset in a fresh process.
PEAK_RSS_BUDGET_KB = 250_000

#: Prints the process's own peak resident set in KB.  ``VmHWM`` belongs
#: to the address space and starts over at ``exec``; a child's
#: ``ru_maxrss`` starts at its parent's resident size at fork, so that
#: number is the test runner's whenever the runner is the larger of the
#: two.  It is the fallback where there is no ``/proc``.
_PEAK_RSS_SNIPPET = """
import resource

def peak_rss_kb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

print(peak_rss_kb())
"""

_BUILD_SNIPPET = """
from repro.experiments import production_scale
from repro.routing import PartitionMap
from repro.sim.random import RandomStreams
from repro.storage import DEFAULT_TUPLE_SIZE_BYTES, PartitionStore
from repro.workload.dataset import (
    choose_distributed_type_ids, initial_placement, load_placement,
    place_unprofiled_keys,
)
from repro.workload.generator import iter_profile_types

config = production_scale(node_count=100, tuple_count=1_000_000)
streams = RandomStreams(config.seed)
partitions = list(range(config.cluster.node_count))
distributed = choose_distributed_type_ids(
    config.workload.distinct_types, config.alpha, streams.stream("placement")
)
pmap = initial_placement(
    iter_profile_types(config.workload), partitions, distributed,
    pmap=PartitionMap(config.workload.tuple_count),
)
place_unprofiled_keys(pmap, config.workload.tuple_count, partitions)
stores = [PartitionStore(p) for p in partitions]
loaded = load_placement(
    pmap, stores.__getitem__, DEFAULT_TUPLE_SIZE_BYTES,
    streams.stream("values"),
)
assert loaded == sum(len(s) for s in stores) == config.workload.tuple_count
""" + _PEAK_RSS_SNIPPET


def _peak_rss_kb_of(snippet: str) -> int:
    """Run ``snippet`` in a fresh interpreter; the number it prints last."""
    return int(run_isolated(snippet).splitlines()[-1])


def test_peak_rss_reader_does_not_measure_its_parent():
    ballast_kb = 300 * 1024
    ballast = b"x" * (ballast_kb * 1024)  # written, hence resident
    peak_kb = _peak_rss_kb_of(_PEAK_RSS_SNIPPET)
    assert len(ballast) == ballast_kb * 1024
    assert 0 < peak_kb < ballast_kb, (
        f"a bare interpreter under a {ballast_kb} KB parent reports "
        f"{peak_kb} KB: the reader measures the process that started it"
    )


def test_million_tuple_build_stays_under_rss_budget():
    peak_kb = _peak_rss_kb_of(_BUILD_SNIPPET)
    assert peak_kb < PEAK_RSS_BUDGET_KB, (
        f"1M-tuple production_scale build peaked at {peak_kb} KB "
        f"(budget {PEAK_RSS_BUDGET_KB} KB); the memory-lean stack "
        "regressed"
    )


def test_lean_stack_under_sixty_percent_of_standard():
    n = 100_000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pmap = PartitionMap(n)
        store = PartitionStore(0)
        for key in range(n):
            pmap.assign(key, key % 8)
            store.insert(Record(key=key, value=key))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == len(pmap) == n
    per_tuple = (after - before) / n
    assert per_tuple <= 160 + 8, (
        f"a stored, mapped tuple costs {per_tuple:.1f} heap bytes"
    )
