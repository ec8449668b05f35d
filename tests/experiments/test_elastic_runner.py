"""End-to-end elasticity through the experiment runner.

The acceptance bar for elastic membership: a mid-run scale-out then
scale-in completes under the ordinary runner — drain migrations are
SOAP-ranked and epoch-staged, every DRAINING node reaches zero resident
tuples before RETIRED, the per-state node census and migration backlog
land in the interval series, and the whole run stays bit-identical
between serial and parallel execution and through the result cache.
"""

import dataclasses
import gc

from repro.cluster import ClusterConfig, NodeState
from repro.elasticity import parse_elasticity_schedule
from repro.experiments import (
    ElasticFigureResult,
    bench_scale,
    build_system,
    config_key,
    figure_elastic,
    run_cells,
    run_experiment,
    start_repartitioning,
)
from repro.experiments.config import config_from_dict, config_to_dict
from repro.workload import WorkloadConfig

#: Add one node during the third measured interval, drain it (node 3,
#: the joiner) later, well before the horizon.
SCHEDULE = "60:add:1,200:drain:3"


def elastic_config(scheduler="Hybrid", schedule=SCHEDULE, seed=0,
                   measure_intervals=14, **kwargs):
    """A small cell with a scale-out/in cycle injected mid-run."""
    config = bench_scale(
        scheduler=scheduler,
        seed=seed,
        measure_intervals=measure_intervals,
        warmup_intervals=1,
        elasticity=(
            parse_elasticity_schedule(schedule) if schedule else None
        ),
        **kwargs,
    )
    return dataclasses.replace(
        config,
        cluster=ClusterConfig(node_count=3, capacity_units_per_s=4.0),
        workload=WorkloadConfig(
            tuple_count=200,
            distinct_types=40,
            distribution=config.workload.distribution,
        ),
    )


def run_system(config):
    """Like ``run_experiment`` but hands back the live system."""
    system = build_system(config)
    env = system.env
    interval_s = config.runtime.interval_s
    warmup_s = interval_s * config.runtime.warmup_intervals

    def kickoff():
        yield env.timeout(warmup_s)
        start_repartitioning(system)

    env.process(kickoff())
    env.run(
        until=warmup_s + interval_s * config.runtime.measure_intervals + 1e-9
    )
    return system


def _assert_identical(first, second):
    assert first.summary == second.summary
    assert len(first.intervals) == len(second.intervals)
    for a, b in zip(first.intervals, second.intervals):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestScaleOutIn:
    def test_join_drain_cycle_completes(self):
        system = run_system(elastic_config())
        controller = system.elasticity_controller
        assert controller is not None
        assert controller.quiescent
        assert controller.nodes_added == 1
        assert controller.drains_started == 1
        assert controller.nodes_retired == 1
        assert controller.migration_ops_planned > 0

        joiner = system.cluster.node(3)
        assert joiner.state is NodeState.RETIRED
        # Retirement never strands data: the node's store is empty and
        # the routing map points no key at its partition.
        assert len(joiner.store) == 0
        sizes = system.store.partition_sizes()
        assert sizes.get(joiner.partition_id, 0) == 0

    def test_every_plan_source_submits_with_the_collector_paused(
        self, collector_at_submit
    ):
        assert gc.isenabled()
        system = run_system(elastic_config())
        # The workload plan, the rebalance onto the joiner, its drain.
        assert system.elasticity_controller.quiescent
        assert len(collector_at_submit) >= 3 and not any(collector_at_submit)
        assert gc.isenabled()

    def test_census_series_recorded(self):
        system = run_system(elastic_config())
        records = system.metrics.intervals
        # The census sums to the node list as of each interval: it only
        # ever grows (retired nodes stay counted), from 3 to 4.
        totals = [
            record.nodes_joining + record.nodes_active
            + record.nodes_draining + record.nodes_retired
            for record in records
        ]
        assert totals == sorted(totals)
        assert totals[0] == 3
        assert totals[-1] == len(system.cluster.nodes) == 4
        assert any(r.nodes_joining > 0 for r in records)
        assert any(r.nodes_draining > 0 for r in records)
        assert records[-1].nodes_retired == 1
        assert records[0].nodes_active == 3

    def test_migration_backlog_series_drains_to_zero(self):
        system = run_system(elastic_config())
        records = system.metrics.intervals
        assert any(r.migration_backlog > 0 for r in records)
        assert records[-1].migration_backlog == 0

    def test_workload_still_served_after_scale_in(self):
        system = run_system(elastic_config())
        assert system.metrics.intervals[-1].committed > 0

    def test_elasticity_before_warmup_end_shares_session(self):
        # The add fires at t=10 s, before the warmup boundary at 20 s:
        # the controller's submit opens the session and the workload
        # plan's submit joins it.
        system = run_system(elastic_config(schedule="10:add:1"))
        session = system.repartitioner.session
        transition = system.elasticity_controller._transitions[0]
        assert transition.txns == session.rep_txns[: len(transition.txns)]
        assert len(session.rep_txns) > len(transition.txns) > 0
        assert system.tm.scheduler is system.repartitioner.scheduler
        assert system.metrics.intervals[-1].committed > 0

    def test_draining_skips_non_active_nodes(self):
        # Draining a node twice: the second event is a schedule mistake
        # and is skipped, not fatal.
        system = run_system(
            elastic_config(schedule="60:add:1,200:drain:3,220:drain:3")
        )
        controller = system.elasticity_controller
        assert controller.drains_started == 1
        assert controller.skipped == 1


class TestPolicyMode:
    def test_sustained_queue_pressure_adds_a_node(self):
        # Watermark low enough that the loaded bench queue trips it.
        system = run_system(
            elastic_config(schedule="high=0.5,low=0.0,check=2,max=4")
        )
        controller = system.elasticity_controller
        assert controller.nodes_added >= 1
        assert len(system.cluster.nodes) <= 4 + 0  # max respected

    def test_max_nodes_caps_growth(self):
        system = run_system(
            elastic_config(schedule="high=0.5,low=0.0,check=1,max=4")
        )
        serving = system.cluster.nodes_in(
            NodeState.ACTIVE, NodeState.JOINING
        )
        assert len(serving) <= 4


class TestDeterminism:
    def test_same_seed_and_schedule_bit_identical(self):
        config = elastic_config(measure_intervals=10)
        _assert_identical(run_experiment(config), run_experiment(config))

    def test_schedule_changes_outcome(self):
        base = elastic_config(measure_intervals=10)
        quiet = elastic_config(schedule=None, measure_intervals=10)
        assert run_experiment(base).summary != run_experiment(quiet).summary

    def test_parallel_matches_serial_bit_for_bit(self):
        configs = [
            elastic_config(scheduler, measure_intervals=10)
            for scheduler in ("ApplyAll", "Hybrid")
        ]
        serial = run_cells(configs, jobs=1)
        parallel = run_cells(configs, jobs=2)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)


class TestConfigPlumbing:
    def test_config_round_trips_through_dict(self):
        config = elastic_config()
        assert config_from_dict(config_to_dict(config)) == config
        policy = elastic_config(schedule="high=50,low=2,check=3")
        assert config_from_dict(config_to_dict(policy)) == policy

    def test_key_sensitive_to_schedule(self):
        base = elastic_config()
        assert config_key(base) == config_key(elastic_config())
        assert config_key(base) != config_key(
            elastic_config(schedule="61:add:1,200:drain:3")
        )
        assert config_key(base) != config_key(
            elastic_config(schedule=None)
        )
        assert config_key(base) != config_key(
            elastic_config(schedule="high=50,low=2,check=3")
        )


class TestElasticFigure:
    def test_tiny_elastic_figure_renders(self, tmp_path):
        from repro.experiments import ResultCache

        result = figure_elastic(
            schedule="60:add:1,200:drain:5",
            schedulers=("Hybrid",),
            measure_intervals=12,
            cache=ResultCache(tmp_path),
        )
        assert isinstance(result, ElasticFigureResult)
        assert set(result.runs) == {("Hybrid", 1.0)}
        text = result.render(every=4)
        assert "Throughput" in text
        assert "Migration backlog" in text
        assert "ACTIVE nodes" in text
