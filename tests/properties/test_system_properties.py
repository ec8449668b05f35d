"""Property-based tests over whole mini-experiments.

These drive the full stack (cluster, 2PL, 2PC, schedulers, workload)
with randomised configurations and assert the invariants that must hold
for *any* configuration:

* tuple conservation — no tuple is ever lost or duplicated outside its
  replica set, whatever the scheduler does;
* store/map agreement — every mapped replica is resident;
* metric sanity — counts non-negative, rates within [0, 1];
* determinism — the same configuration replays identically.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.experiments import bench_scale, run_experiment
from repro.workload import WorkloadConfig

from ..hypothesis_budget import examples

SCHEDULERS = st.sampled_from(
    ["ApplyAll", "AfterAll", "Feedback", "Piggyback", "Hybrid"]
)


@st.composite
def mini_configs(draw):
    scheduler = draw(SCHEDULERS)
    distribution = draw(st.sampled_from(["zipf", "uniform"]))
    load = draw(st.sampled_from(["high", "low"]))
    alpha = draw(st.sampled_from([1.0, 0.6, 0.2]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    node_count = draw(st.integers(min_value=2, max_value=5))
    config = bench_scale(
        scheduler=scheduler,
        distribution=distribution,
        load=load,
        alpha=alpha,
        seed=seed,
        measure_intervals=4,
        warmup_intervals=1,
    )
    return replace(
        config,
        cluster=ClusterConfig(
            node_count=node_count, capacity_units_per_s=4.0
        ),
        workload=WorkloadConfig(
            tuple_count=150, distinct_types=30, distribution=distribution
        ),
    )


class TestSystemInvariants:
    @settings(max_examples=examples(15), deadline=None)
    @given(mini_configs())
    def test_tuples_conserved_and_metrics_sane(self, config):
        from repro.experiments import build_system, start_repartitioning
        from repro.workload import verify_placement

        system = build_system(config)
        env = system.env
        interval = config.runtime.interval_s

        def kickoff():
            yield env.timeout(interval * config.runtime.warmup_intervals)
            start_repartitioning(system)

        env.process(kickoff())
        horizon = interval * (
            config.runtime.warmup_intervals
            + config.runtime.measure_intervals
        )
        env.run(until=horizon)
        # Drain in-flight transactions: a migration caught mid-commit
        # legitimately has its destination copy inserted already, so
        # conservation is asserted at quiescence.
        deadline = horizon + 600
        while (
            (system.tm.in_flight > 0 or len(system.tm.queue) > 0)
            and env.now < deadline
        ):
            env.run(until=env.now + 5)

        # Tuple conservation: every tuple exists exactly once per mapped
        # replica, and no store holds unmapped residents.
        pmap = system.router.partition_map
        assert verify_placement(system.cluster, pmap)
        mapped_residency = sum(
            pmap.replica_count(key) for key in pmap.keys()
        )
        actual_residency = sum(
            len(node.store) for node in system.cluster.nodes
        )
        assert actual_residency == mapped_residency

        # Metric sanity on every interval.
        for record in system.metrics.intervals:
            assert record.submitted >= 0
            assert record.committed >= 0
            assert record.aborted >= 0
            assert 0.0 <= record.rep_rate <= 1.0
            assert record.normal_cost >= 0.0
            assert record.mean_latency_ms >= 0.0

    @settings(max_examples=examples(5), deadline=None)
    @given(mini_configs())
    def test_same_config_replays_identically(self, config):
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.summary == second.summary
        assert [r.submitted for r in first.intervals] == [
            r.submitted for r in second.intervals
        ]
        assert [r.aborted for r in first.intervals] == [
            r.aborted for r in second.intervals
        ]
