#!/usr/bin/env python3
"""Flash crowd: a workload shift detected and repaired online.

This example uses the library's components directly (no canned
experiment runner) to script the scenario the paper's introduction
motivates: a web application whose access pattern shifts, leaving the
old partitioning scheme misaligned with the workload.

1. Build a 4-node cluster hash-partitioned by key — fine for the
   original, uniform workload.
2. A "flash crowd" arrives: a Zipf-skewed population whose transaction
   types straddle partition boundaries, so most transactions become
   distributed and the cluster saturates.
3. The optimizer's utilisation trigger fires; a Schism-style co-access
   graph partitioner derives a new plan from the observed workload.
4. SOAP deploys the plan online with the Hybrid scheduler while the
   flash crowd keeps hammering the system.

Run:  python examples/flash_crowd.py
"""

import random

from repro.cluster import Cluster, ClusterConfig
from repro.core import HybridScheduler, Repartitioner
from repro.core.schedulers import FeedbackConfig
from repro.metrics import MetricsCollector, format_interval_table
from repro.partitioning import CostModel, GraphPartitioner, RepartitionOptimizer
from repro.routing import QueryRouter
from repro.sim import Environment, RandomStreams
from repro.storage import Record
from repro.txn import (
    ExecutorConfig,
    TransactionExecutor,
    TransactionManager,
    TransactionManagerConfig,
    TwoPhaseCommitCoordinator,
)
from repro.workload import (
    ArrivalConfig,
    PoissonArrivalProcess,
    WorkloadConfig,
    WorkloadSampler,
    build_profile,
    calibrate_rate,
)
from repro.partitioning import HashPartitioner

INTERVAL_S = 20.0
NODES = 4
TUPLES = 1_200


def main() -> None:
    env = Environment()
    streams = RandomStreams(7)
    cluster = Cluster(
        env, ClusterConfig(node_count=NODES, capacity_units_per_s=4.0)
    )

    # --- 1. Original placement: plain hash partitioning ------------------
    hash_plan = HashPartitioner(cluster.partition_ids).plan_for(
        range(TUPLES)
    )
    from repro.routing import PartitionMap

    pmap = PartitionMap()
    value_rng = random.Random(1)
    for key in range(TUPLES):
        pid = hash_plan.target_of(key)
        pmap.assign(key, pid)
        cluster.node_for_partition(pid).store.insert(
            Record(key=key, value=value_rng.randrange(10**6))
        )

    router = QueryRouter(pmap)
    cost_model = CostModel(base_cost=1.0, rep_op_cost=2.0)
    twopc = TwoPhaseCommitCoordinator(env, cluster.network)
    executor = TransactionExecutor(
        env, cluster, router, cost_model, twopc, ExecutorConfig()
    )
    metrics = MetricsCollector(env, interval_s=INTERVAL_S)
    tm = TransactionManager(
        env,
        executor,
        metrics,
        TransactionManagerConfig(max_concurrent=50, queue_timeout_s=80.0),
    )

    # --- 2. The flash crowd: skewed types that straddle partitions -------
    crowd_config = WorkloadConfig(
        tuple_count=TUPLES,
        distinct_types=200,
        distribution="zipf",
        zipf_s=1.16,
    )
    crowd_profile = build_profile(crowd_config)
    # Consecutive 5-key blocks land on different hash partitions, so
    # nearly every flash-crowd transaction is distributed.
    rate = calibrate_rate(
        1.2,  # 120% of capacity: the crowd overloads the cluster
        cluster.total_capacity_units_per_s,
        cost_model.expected_cost_per_txn(crowd_profile.types, pmap),
    )
    sampler = WorkloadSampler(
        crowd_profile, crowd_config, streams.stream("crowd")
    )
    PoissonArrivalProcess(
        env,
        tm,
        sampler,
        ArrivalConfig(rate_txn_per_s=rate, interval_s=INTERVAL_S),
        streams.stream("arrivals"),
        horizon_s=40 * INTERVAL_S,
    )

    # --- 3. Detection + Schism-style planning ----------------------------
    optimizer = RepartitionOptimizer(cost_model, cluster.partition_ids)
    should = optimizer.should_repartition(
        rate,
        cost_model.expected_cost_per_txn(crowd_profile.types, pmap),
        cluster.total_capacity_units_per_s,
    )
    print(f"crowd arrival rate: {rate:.1f} txn/s")
    print(f"optimizer trigger fires: {should}")

    graph_partitioner = GraphPartitioner(cluster.partition_ids)
    plan = graph_partitioner.derive_plan(crowd_profile)
    cut = graph_partitioner.cut_weight(crowd_profile, plan)
    print(
        f"graph plan: {len(plan)} tuples placed, residual cut weight {cut:.1f}"
    )

    # --- 4. Online deployment with Hybrid ---------------------------------
    scheduler = HybridScheduler(
        FeedbackConfig(setpoint=1.05, normal_cost_hint=rate * INTERVAL_S)
    )
    repartitioner = Repartitioner(
        env, tm, router, metrics, cost_model, scheduler
    )

    def deploy_after_warmup():
        yield env.timeout(5 * INTERVAL_S)
        repartitioner.submit(repartitioner.rank_plan(plan, crowd_profile))
        session = repartitioner.session
        print(
            f"[t={env.now:.0f}s] deploying "
            f"{len(session.rep_txns)} repartition transactions "
            f"({session.ops_total} tuple moves) with Hybrid"
        )

    env.process(deploy_after_warmup())
    env.run(until=40 * INTERVAL_S + 1e-9)

    print()
    print(format_interval_table(metrics.intervals, every=2))
    session = repartitioner.session
    if session is not None and session.completed_at is not None:
        print(
            f"\nrepartitioning finished at t={session.completed_at:.0f}s; "
            "the crowd's transactions now run single-partition."
        )
    else:
        done = metrics.rep_ops_applied
        print(f"\nrepartitioning still in flight: {done} ops applied.")


if __name__ == "__main__":
    main()
