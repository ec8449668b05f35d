"""Perf harness for the cluster-scale tier: memory and wall-clock vs nodes.

Builds the ``production_scale`` preset's dataset layer (streaming type
generation → partition map → per-node stores) at each
node count and writes ``BENCH_scale.json`` at the repo root:

* **build wall-clock + peak RSS per node count** — the headline scale
  numbers: assembling a 1M-tuple cluster must stay flat-ish in time and
  memory as nodes grow from 100 to 500 (the dataset dominates both; the
  per-node overhead is bounded).  Node counts run ascending because
  ``ru_maxrss`` is a process-lifetime high-water mark.
* **routing at scale** — route reads, deep-pinned epoch reads, and
  publish latency against the 1M-key map, proving the O(1)
  fast paths hold at three orders of magnitude above the figure presets;
* **bytes/tuple and bytes/key** — a tracemalloc pass (separate from
  the wall-clock section: tracing slows allocation) loading a sample
  into one store and one map, each held under an absolute ceiling;
* **end-to-end simulation at 100+ nodes** — an actual
  ``production_scale`` run through ``run_experiment`` (Poisson
  arrivals, Hybrid scheduler, locks, 2PC, repartitioning) recording the
  per-interval throughput series, not just the dataset/routing layer.
  Per-node capacity is turned down from the preset's 40 units/s so the
  single-threaded event loop finishes in bench time; offered load stays
  calibrated at the same utilisation, which is what the schedulers see,
  and the capacity used is recorded alongside the series.

Correctness is asserted alongside the timings.  Uses no pytest plugins:
``PYTHONPATH=src python -m pytest -x -q benchmarks/test_perf_scale.py``.
Environment overrides for local deep runs (CI uses the defaults):
``REPRO_SCALE_TUPLES`` (dataset size, default 1,000,000, 10M supported),
``REPRO_SCALE_NODES`` (comma-separated, default ``100,250,500``),
``REPRO_SCALE_E2E_NODES`` (simulated cluster size, default 100), and
``REPRO_SCALE_E2E_MEASURE`` (measured intervals, default 5).
"""

import dataclasses
import json
import os
import pathlib
import platform
import resource
import time
import tracemalloc

from repro.experiments import production_scale, run_experiment
from repro.routing import PartitionMap, PartitionMapStore, QueryRouter
from repro.sim.random import RandomStreams
from repro.storage import DEFAULT_TUPLE_SIZE_BYTES, PartitionStore, Record
from repro.workload.dataset import (
    choose_distributed_type_ids,
    initial_placement,
    load_placement,
    place_unprofiled_keys,
)
from repro.workload.generator import iter_profile_types

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_scale.json"

TUPLE_COUNT = int(os.environ.get("REPRO_SCALE_TUPLES", 1_000_000))
NODE_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_SCALE_NODES", "100,250,500").split(",")
)
ROUTE_CALLS = 200_000
PUBLISH_BATCH = 64
PINNED_DEPTH = 10
#: Tuples in the tracemalloc bytes-per-tuple / bytes-per-key pass.
MEMCMP_TUPLES = 200_000
#: Heap-byte ceilings: the store's key → slot dict dominates a tuple
#: (~146 B measured); a mapped key is one 4-byte cell.
MAX_BYTES_PER_TUPLE = 160
MAX_MAP_BYTES_PER_KEY = 8

#: End-to-end simulation section (see module docstring).
E2E_NODES = int(os.environ.get("REPRO_SCALE_E2E_NODES", 100))
E2E_MEASURE_INTERVALS = int(os.environ.get("REPRO_SCALE_E2E_MEASURE", 5))
E2E_WARMUP_INTERVALS = 1
E2E_INTERVAL_S = 5.0
E2E_CAPACITY_UNITS_PER_S = 8.0
E2E_TUPLES = 500_000


def _peak_rss_kb() -> int:
    """Process high-water RSS in KB (Linux ru_maxrss unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _build_dataset(node_count: int, tuple_count: int):
    """Assemble the scale preset's dataset layer; returns (map store,
    per-partition tuple stores, seconds).

    The stores are loaded — by the loader ``build_system`` uses —
    without the node machinery (locks, work servers, WAL) so the
    recorded memory is the storage layer's, not the simulation
    scaffolding's.
    """
    config = production_scale(node_count=node_count, tuple_count=tuple_count)
    streams = RandomStreams(config.seed)
    started = time.perf_counter()
    partitions = list(range(node_count))
    distributed = choose_distributed_type_ids(
        config.workload.distinct_types,
        config.alpha,
        streams.stream("placement"),
    )
    pmap = initial_placement(
        iter_profile_types(config.workload),
        partitions,
        distributed,
        pmap=PartitionMap(tuple_count),
    )
    place_unprofiled_keys(pmap, tuple_count, partitions)
    stores = [PartitionStore(pid) for pid in range(node_count)]
    load_placement(
        pmap,
        stores.__getitem__,
        DEFAULT_TUPLE_SIZE_BYTES,
        streams.stream("values"),
    )
    elapsed = time.perf_counter() - started
    assert len(pmap) == tuple_count
    assert sum(len(s) for s in stores) == tuple_count
    return PartitionMapStore(pmap), stores, elapsed


def _time_route_reads(store: PartitionMapStore, n: int) -> float:
    router = QueryRouter(store)
    n_keys = len(store)
    keys = [(i * 7919) % n_keys for i in range(1000)]
    started = time.perf_counter()
    for i in range(n):
        router.route_read(keys[i % 1000])
    elapsed = time.perf_counter() - started
    assert router.reads_routed == n
    return n / elapsed


def _time_pinned_reads(store: PartitionMapStore, n: int, partitions: int):
    router = QueryRouter(store)
    pinned = store.pin()
    moved = []
    for i in range(PINNED_DEPTH):
        stage = store.begin_stage()
        key = i * 13
        primary = store.primary_of(key)
        stage.move(key, primary, (primary + 1) % partitions)
        store.publish(stage)
        moved.append((key, primary))
    n_keys = len(store)
    keys = [(i * 7919) % n_keys for i in range(1000)]
    started = time.perf_counter()
    for i in range(n):
        router.route_read(keys[i % 1000], epoch=pinned)
    elapsed = time.perf_counter() - started
    for key, old_primary in moved:
        assert pinned.primary_of(key) == old_primary
    store.unpin(pinned)
    return n / elapsed


def _time_publish(store: PartitionMapStore, partitions: int, rounds: int = 20):
    """Mean latency of staging + publishing PUBLISH_BATCH moves."""
    n_keys = len(store)
    latencies = []
    published = store.publishes
    for round_index in range(rounds):
        stage = store.begin_stage()
        base = (round_index * PUBLISH_BATCH * 31) % n_keys
        staged = 0
        offset = 0
        while staged < PUBLISH_BATCH:
            key = (base + offset * 17) % n_keys
            offset += 1
            if key in stage.staged_keys:
                continue
            primary = store.primary_of(key)
            stage.move(key, primary, (primary + 1) % partitions)
            staged += 1
        started = time.perf_counter()
        store.publish(stage)
        latencies.append(time.perf_counter() - started)
    assert store.publishes == published + rounds
    return sum(latencies) / len(latencies)


def _bytes_per_tuple(n: int) -> float:
    """Heap bytes per resident tuple."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        store = PartitionStore(0)
        for key in range(n):
            store.insert(Record(key=key, value=key * 31))
        after, _ = tracemalloc.get_traced_memory()
        assert len(store) == n
        return (after - before) / n
    finally:
        tracemalloc.stop()


def _map_bytes_per_key(n: int) -> float:
    """Heap bytes per mapped key of a map whose capacity covers them."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pmap = PartitionMap(n)
        for key in range(n):
            pmap.assign(key, key % 8)
        after, _ = tracemalloc.get_traced_memory()
        assert len(pmap) == n
        return (after - before) / n
    finally:
        tracemalloc.stop()


def _run_e2e_simulation():
    """Full-stack simulation at 100+ nodes; returns the payload section."""
    assert E2E_NODES >= 100, "the e2e section exists to prove 100+ nodes"
    config = production_scale(
        scheduler="Hybrid",
        load="low",
        node_count=E2E_NODES,
        tuple_count=E2E_TUPLES,
        measure_intervals=E2E_MEASURE_INTERVALS,
        warmup_intervals=E2E_WARMUP_INTERVALS,
    )
    config = dataclasses.replace(
        config,
        cluster=dataclasses.replace(
            config.cluster, capacity_units_per_s=E2E_CAPACITY_UNITS_PER_S
        ),
        runtime=dataclasses.replace(
            config.runtime, interval_s=E2E_INTERVAL_S
        ),
    )
    started = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - started
    # ``measured`` drops the warmup interval(s): the recorded series is
    # exactly the paper-style x-axis.
    throughput = [
        round(r.throughput_txn_per_min, 1) for r in result.measured
    ]
    committed = sum(r.committed for r in result.measured)
    assert len(throughput) == E2E_MEASURE_INTERVALS
    # The cluster must actually serve traffic in every interval: an
    # idle "run" would record a vacuous series.
    assert all(r.committed > 0 for r in result.measured), throughput
    return {
        "e2e_node_count": E2E_NODES,
        "e2e_tuple_count": E2E_TUPLES,
        "e2e_scheduler": "Hybrid",
        "e2e_interval_s": E2E_INTERVAL_S,
        "e2e_measure_intervals": E2E_MEASURE_INTERVALS,
        "e2e_capacity_units_per_s": E2E_CAPACITY_UNITS_PER_S,
        "e2e_throughput_txn_per_min": throughput,
        "e2e_committed_total": committed,
        "e2e_wall_clock_s": round(elapsed, 1),
    }


def test_perf_scale():
    assert NODE_COUNTS == tuple(sorted(NODE_COUNTS)), (
        "node counts must ascend: ru_maxrss only ever grows, so an "
        "out-of-order run would attribute a bigger config's peak to a "
        "smaller one"
    )
    payload = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "tuple_count": TUPLE_COUNT,
        "node_counts": list(NODE_COUNTS),
        "rss_unit": "KB" if platform.system() == "Linux" else "platform",
    }

    # Dataset assembly per node count (ascending; see module docstring).
    build_s = {}
    peak_rss = {}
    scale_store = None
    for node_count in NODE_COUNTS:
        map_store, stores, elapsed = _build_dataset(node_count, TUPLE_COUNT)
        build_s[str(node_count)] = round(elapsed, 3)
        peak_rss[str(node_count)] = _peak_rss_kb()
        scale_store = map_store
        largest = max(len(s) for s in stores)
        smallest = min(len(s) for s in stores)
        # Round-robin cold placement keeps stores balanced.
        assert largest - smallest <= TUPLE_COUNT // node_count
        del stores
    payload["build_wall_clock_s_by_nodes"] = build_s
    payload["peak_rss_by_nodes"] = peak_rss

    # Routing fast paths against the biggest map just built.
    partitions = NODE_COUNTS[-1]
    payload["route_read_per_s"] = round(
        _time_route_reads(scale_store, ROUTE_CALLS)
    )
    payload["pinned_epoch_read_per_s"] = round(
        _time_pinned_reads(scale_store, ROUTE_CALLS // 4, partitions)
    )
    payload["epoch_publish_ms"] = round(
        _time_publish(scale_store, partitions) * 1000, 4
    )
    # The pinned-read overlay must hold up at 1M+ keys exactly as it
    # does in BENCH_routing.json's 10k-key microbench.
    assert payload["pinned_epoch_read_per_s"] >= (
        0.4 * payload["route_read_per_s"]
    ), payload
    del scale_store

    # Memory: traced heap bytes per stored tuple and per mapped key.
    bytes_per_tuple = _bytes_per_tuple(MEMCMP_TUPLES)
    map_bytes_per_key = _map_bytes_per_key(MEMCMP_TUPLES)
    payload["bytes_per_tuple"] = round(bytes_per_tuple, 2)
    payload["map_bytes_per_key"] = round(map_bytes_per_key, 2)
    assert bytes_per_tuple <= MAX_BYTES_PER_TUPLE, payload
    assert map_bytes_per_key <= MAX_MAP_BYTES_PER_KEY, payload

    # End-to-end simulation: arrivals + schedulers at 100+ nodes.
    payload.update(_run_e2e_simulation())

    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
