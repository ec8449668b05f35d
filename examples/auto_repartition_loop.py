#!/usr/bin/env python3
"""The fully closed loop: monitor → trigger → plan → submit → repeat.

The paper's repartitioner (§2.2) "periodically extracts the frequency of
transactions ... from the workload history" and triggers a repartition
plan whenever estimated performance drops below a threshold.  The
benchmark harness scripts that moment; this example instead runs the
real loop with no script:

1. a `WorkloadMonitor` observes every arriving transaction;
2. an `AutoRepartitioner` checks estimated utilisation each interval;
3. when the workload *shifts* mid-run (phase 2 switches the arrival
   stream to a different, badly-partitioned population), utilisation
   breaches the threshold and a Hybrid deployment starts on its own;
4. the system re-converges — watch RepRate and failure rate.

Run:  python examples/auto_repartition_loop.py
"""

from repro.core import (
    AutoRepartitioner,
    AutoRepartitionerConfig,
    WorkloadMonitor,
)
from repro.experiments import bench_scale, build_system
from repro.metrics import format_interval_table
from repro.partitioning import OptimizerConfig, RepartitionOptimizer
from repro.workload import (
    ArrivalConfig,
    PoissonArrivalProcess,
    WorkloadSampler,
)

INTERVALS = 40
INTERVAL_S = 20.0


def main() -> None:
    # Build a normally-loaded system whose initial placement is fine...
    config = bench_scale(
        scheduler="Hybrid",  # deploys whatever the trigger submits
        distribution="zipf",
        load="low",
        alpha=1.0,
        measure_intervals=INTERVALS,
        warmup_intervals=0,
    )
    system = build_system(config)
    env = system.env

    # ...but don't script any repartitioning.  Instead, wire the loop:
    monitor = WorkloadMonitor(
        env, interval_s=INTERVAL_S, window_intervals=5,
        table=config.workload.table,
    )
    original_on_submit = system.tm.submit

    def submit_with_observation(txn, priority=None):
        if txn.is_normal:
            monitor.observe(txn)
        original_on_submit(txn, priority)

    system.tm.submit = submit_with_observation

    optimizer = RepartitionOptimizer(
        system.cost_model,
        system.cluster.partition_ids,
        OptimizerConfig(utilisation_threshold=0.9),
    )
    auto = AutoRepartitioner(
        system.repartitioner,
        monitor,
        optimizer,
        system.metrics,
        capacity_units_per_s=system.cluster.total_capacity_units_per_s,
        config=AutoRepartitionerConfig(min_arrivals=2),
    )

    print(
        "phase 1: workload matches the placement — the trigger should "
        "stay quiet."
    )
    env.run(until=8 * INTERVAL_S)
    print(f"  t={env.now:.0f}s plans submitted: {auto.plans_submitted}")

    # Phase 2: the workload shifts — arrivals now come from the
    # *distributed* population the initial placement was never built
    # for (the runner placed alpha=100% types spread out, so simply
    # doubling the arrival rate overloads the old plan).
    print("phase 2: arrival rate doubles — utilisation breaches 90%.")
    shifted = PoissonArrivalProcess(
        env,
        system.tm,
        WorkloadSampler(
            system.profile, config.workload,
            system.streams.stream("shifted-arrivals"),
        ),
        ArrivalConfig(
            rate_txn_per_s=system.arrival_rate_txn_per_s,
            interval_s=INTERVAL_S,
        ),
        system.streams.stream("shifted-poisson"),
        horizon_s=INTERVALS * INTERVAL_S,
    )
    env.run(until=INTERVALS * INTERVAL_S + 1e-9)

    print(f"\nplans submitted automatically: {auto.plans_submitted}")
    session = system.repartitioner.session
    if session is not None:
        state = "complete" if session.is_complete else "in flight"
        print(
            f"session: {len(session.rep_txns)} repartition "
            f"transactions, {session.ops_total} ops — {state}"
        )
    print()
    print(format_interval_table(system.metrics.intervals, every=2))
    print(
        "\nNote how RepRate only starts moving after the phase-2 "
        "overload — nobody scripted the deployment."
    )


if __name__ == "__main__":
    main()
