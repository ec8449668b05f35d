#!/usr/bin/env python3
"""Extending SOAP: writing a custom repartition scheduler.

The scheduler interface (:class:`repro.core.Scheduler`) has four hooks —
``admit``, ``on_interval``, ``on_submit``, ``on_finished`` — and this
example implements a new strategy with them:

**DrainThenBurst**: watch the queue each interval; while the backlog of
normal transactions exceeds a threshold, stay completely out of the way
(like AfterAll), but the moment the backlog drops below it, burst a
batch of repartition transactions at NORMAL priority (like a bounded
ApplyAll).  A crude bang-bang controller — exactly the kind of policy
SOAP's feedback design improves on — but it shows how little code a new
strategy needs.

The example then races DrainThenBurst against the paper's Hybrid on the
same workload.

Run:  python examples/custom_scheduler.py
"""

from repro.core import Repartitioner, Scheduler
from repro.experiments import (
    bench_scale,
    build_system,
    run_experiment,
    start_repartitioning,
)
from repro.metrics import format_comparison_table
from repro.metrics.collectors import IntervalRecord
from repro.types import Priority


class DrainThenBurstScheduler(Scheduler):
    """Bang-bang strategy: idle while backlogged, burst when drained."""

    name = "DrainThenBurst"

    def __init__(self, backlog_threshold: int = 50, burst_size: int = 10):
        super().__init__()
        self.backlog_threshold = backlog_threshold
        self.burst_size = burst_size
        self.bursts = 0

    def admit(self, new_txns) -> None:
        # Hold everything back; we submit only during bursts.
        pass

    def on_interval(self, record: IntervalRecord) -> None:
        session = self.session
        if session is None or session.is_complete:
            return
        backlog = session.tm.queue.waiting_normal_work()
        if backlog > self.backlog_threshold:
            return
        batch = session.pending()[: self.burst_size]
        for rep_txn in batch:
            session.submit(rep_txn, Priority.NORMAL)
        if batch:
            self.bursts += 1


def run_with_custom_scheduler(config):
    """Run an experiment cell, swapping in the custom scheduler."""

    system = build_system(config)
    # The repartitioner owns the run's one scheduler: build it with ours.
    system.repartitioner = Repartitioner(
        system.env, system.tm, system.router, system.metrics,
        system.cost_model, DrainThenBurstScheduler(),
    )
    interval_s = config.runtime.interval_s
    warmup_s = interval_s * config.runtime.warmup_intervals

    def kickoff():
        yield system.env.timeout(warmup_s)
        # Plan, rank and submit exactly as the stock runner does.
        start_repartitioning(system)

    system.env.process(kickoff())
    horizon = warmup_s + interval_s * config.runtime.measure_intervals
    system.env.run(until=horizon + 1e-9)
    return system


def main() -> None:
    config = bench_scale(
        scheduler="Hybrid",  # used for the baseline run
        distribution="zipf",
        load="low",
        alpha=1.0,
        measure_intervals=30,
        warmup_intervals=5,
    )

    print("running Hybrid (paper baseline) ...")
    hybrid = run_experiment(config)

    print("running DrainThenBurst (custom) ...")
    system = run_with_custom_scheduler(config)
    custom_records = system.metrics.intervals[
        config.runtime.warmup_intervals:
    ]

    records = {
        "Hybrid": hybrid.measured,
        "DrainThenBurst": custom_records,
    }
    for metric, label in (
        ("rep_rate", "RepRate"),
        ("mean_latency_ms", "Latency (ms)"),
        ("failure_rate", "Failure rate"),
    ):
        print()
        print(
            format_comparison_table(
                records, metric, title=f"--- {label} ---", every=3
            )
        )

    repartitioner = system.repartitioner
    print(
        f"\nDrainThenBurst fired {repartitioner.scheduler.bursts} bursts; "
        f"session complete: {repartitioner.session.is_complete}"
    )
    print(
        "Lesson: the bang-bang policy either lags Hybrid (threshold too "
        "high) or spikes latency (burst too big) — the gap SOAP's "
        "feedback controller closes automatically."
    )


if __name__ == "__main__":
    main()
