"""The benchmark's workloads: name -> ``ExperimentConfig`` for a seed.

Each workload is one whole evaluation cell.  The load of every cell is
an *open loop in virtual time*: Poisson arrivals at the rate
``calibrate_rate`` derives from the config, independent of completions.
On the host the cell is a single-process, single-thread batch job, so
the host-side figures are work completed per host second at the input
size stated here, not a served rate.

``smoke=True`` shortens every horizon (and the cluster) so the whole
set runs in well under a minute; smoke numbers are for the self-test
only and are never compared against full runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.elasticity import parse_elasticity_schedule
from repro.experiments import (
    ExperimentConfig,
    bench_scale,
    medium_scale,
    production_scale,
)
from repro.faults import parse_fault_schedule

#: N -> 2N -> N membership with two crash/replay recoveries: five nodes
#: join at t=200 s, the same five drain at t=760 s, and one original
#: node is down for 60 s during each phase.
ELASTIC_SCHEDULE = (
    "200:add:5,760:drain:5,760:drain:6,760:drain:7,760:drain:8,760:drain:9"
)
FAULT_SCHEDULE = "400:crash:1,460:restart:1,1000:crash:3,1060:restart:3"
#: The same shape for the smoke horizon; the drain falls after it and is
#: played out by the audit's (idle, cheap) continuation.
SMOKE_ELASTIC_SCHEDULE = "60:add:1,600:drain:5"
SMOKE_FAULT_SCHEDULE = "100:crash:1,120:restart:1"

#: Node count of the scale-tier workload (its name says so).
CLUSTER_NODES = 32


def _with_runtime(config: ExperimentConfig, **changes) -> ExperimentConfig:
    return dataclasses.replace(
        config, runtime=dataclasses.replace(config.runtime, **changes)
    )


def _std_cell(seed: int, smoke: bool) -> ExperimentConfig:
    return bench_scale(
        "Hybrid", "zipf", "high", alpha=1.0, seed=seed,
        warmup_intervals=2 if smoke else 10,
        measure_intervals=6 if smoke else 70,
    )


def _uniform_low(seed: int, smoke: bool) -> ExperimentConfig:
    # alpha = 0.2 (the paper's lightest plan): the repartitioning is
    # over within a few intervals, the rest is plain uncontended traffic.
    return _with_runtime(
        medium_scale("Hybrid", "uniform", "low", alpha=0.2, seed=seed),
        warmup_intervals=1 if smoke else 3,
        measure_intervals=2 if smoke else 10,
    )


def _cluster(seed: int, smoke: bool) -> ExperimentConfig:
    config = production_scale(
        "Hybrid", load="low", seed=seed,
        node_count=8 if smoke else CLUSTER_NODES,
        tuple_count=500_000,
        warmup_intervals=1,
        measure_intervals=1 if smoke else 3,
    )
    # Same overrides as benchmarks/test_perf_scale._run_e2e_simulation:
    # a calibrated low load the pure-Python simulator can serve.
    config = dataclasses.replace(
        config,
        cluster=dataclasses.replace(
            config.cluster, capacity_units_per_s=8.0
        ),
    )
    return _with_runtime(config, interval_s=5.0)


def _elastic_churn(seed: int, smoke: bool) -> ExperimentConfig:
    # Low load: at 1.3x overload the crash timing decides how long the
    # queue stays saturated, and every simulated metric swings by 15-30%
    # from seed to seed; at 0.65x the churn itself is what is measured.
    return bench_scale(
        "Hybrid", "zipf", "low", seed=seed,
        warmup_intervals=2 if smoke else 5,
        measure_intervals=12 if smoke else 65,
        faults=parse_fault_schedule(
            SMOKE_FAULT_SCHEDULE if smoke else FAULT_SCHEDULE
        ),
        elasticity=parse_elasticity_schedule(
            SMOKE_ELASTIC_SCHEDULE if smoke else ELASTIC_SCHEDULE
        ),
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Why the workload is in the benchmark (one line, also the
    #: ``why`` of BENCHMARK.json).
    why: str
    build: Callable[[int, bool], ExperimentConfig]
    #: Whether the audit drains the system after the timed run and
    #: checks the final placement (the scale tier's repartitioning is
    #: still in flight at its horizon, so it is checked as it stands).
    quiesce: bool = True
    #: Cells (consecutive seeds) one run generates from ``--seed``; the
    #: simulated metrics are the median over them.
    cells: int = 3


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "std_cell",
            "The Zipf/high-load Hybrid cell every figure grid is made of: "
            "overloaded 1.3x and skewed, so sim, locking, txn and routing "
            "all do real work.",
            _std_cell,
        ),
        Workload(
            "uniform_low",
            "Contention-free floor (uniform, 0.65x load, 25k tuples, 4,000 "
            "types, alpha 0.2): the bypass workload for locking changes, "
            "most sensitive to per-event overhead.",
            _uniform_low,
        ),
        Workload(
            f"cluster{CLUSTER_NODES}",
            f"Scale tier ({CLUSTER_NODES} nodes, 500k tuples, compact store "
            "+ dense map): locking's O(queue^2) wait-edge refresh "
            "dominates; storage and workload own set-up and memory.",
            _cluster,
            quiesce=False,
        ),
        Workload(
            "elastic_churn",
            "Writes beside reads: WAL write path, two crash/replay "
            "recoveries, N->2N->N membership, bulk epoch publishes, "
            "node_down aborts and back-off retries.",
            _elastic_churn,
            cells=4,
        ),
    )
}
