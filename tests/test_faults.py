"""Tests for the declarative fault-injection schedule and injector."""

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ConfigError
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultScheduleConfig,
    parse_fault_schedule,
)


@pytest.fixture
def cluster(env):
    return Cluster(env, ClusterConfig(node_count=3, capacity_units_per_s=10.0))


class TestParsing:
    def test_deterministic_events(self):
        schedule = parse_fault_schedule("120:crash:2,180:restart:2")
        assert schedule.events == (
            FaultEvent(at_s=120.0, action="crash", node_id=2),
            FaultEvent(at_s=180.0, action="restart", node_id=2),
        )
        assert schedule.mtbf_s is None
        assert schedule.enabled

    def test_events_sorted_by_time(self):
        schedule = parse_fault_schedule("180:restart:2,120:crash:2")
        assert [e.at_s for e in schedule.events] == [120.0, 180.0]

    def test_stochastic(self):
        schedule = parse_fault_schedule("mtbf=300,mttr=30")
        assert schedule.mtbf_s == 300.0
        assert schedule.mttr_s == 30.0
        assert schedule.start_s == 0.0
        assert schedule.end_s is None
        assert schedule.enabled

    def test_stochastic_window(self):
        schedule = parse_fault_schedule("mtbf=300,mttr=30,start=100,end=900")
        assert schedule.start_s == 100.0
        assert schedule.end_s == 900.0

    @pytest.mark.parametrize("text", [
        "",
        "120:crash",                 # missing node field
        "120:explode:2",             # unknown action
        "abc:crash:2",               # non-numeric time
        "120:crash:x",               # non-numeric node
        "mtbf=300",                  # mttr missing
        "mtbf=300,mttr=0",           # non-positive mttr
        "mtbf=300,mttr=30,foo=1",    # unknown key
        "mtbf=300,mttr=abc",         # non-numeric value
        "120:crash:2,mtbf=300",      # mixed grammars
        "mtbf=300,mttr=30,start=50,end=40",  # window ends before start
        "-5:crash:2",                # negative time
        "nan:crash:1",               # every `<` guard is false for NaN
        "inf:crash:1",               # never happens
        "mtbf=nan,mttr=1",
        "mtbf=inf,mttr=1",
        "mtbf=3,mttr=nan",
        "mtbf=3,mttr=1,start=nan",
        "mtbf=3,mttr=1,end=inf",
        # An integer past float range, refused in key=value form too.
        pytest.param("0:crash:" + "9" * 400, id="0:crash:9*400"),
    ])
    def test_malformed_raises_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_fault_schedule(text)

    def test_empty_schedule_disabled(self):
        assert not FaultScheduleConfig().enabled


class TestDeterministicInjection:
    def test_events_applied_at_scheduled_times(self, env, cluster):
        schedule = parse_fault_schedule("10:crash:1,25:restart:1")
        injector = FaultInjector(env, cluster, schedule)
        injector.start()
        env.run(until=11.0)
        assert cluster.node(1).is_down
        env.run(until=26.0)
        assert not cluster.node(1).is_down
        assert injector.crashes == 1
        assert injector.restarts == 1
        assert injector.skipped == 0

    def test_crash_of_down_node_skipped(self, env, cluster):
        schedule = parse_fault_schedule("10:crash:1,12:crash:1")
        injector = FaultInjector(env, cluster, schedule)
        injector.start()
        env.run(until=15.0)
        assert injector.crashes == 1
        assert injector.skipped == 1

    def test_restart_of_live_node_skipped(self, env, cluster):
        injector = FaultInjector(
            env, cluster, parse_fault_schedule("10:restart:0")
        )
        injector.start()
        env.run(until=15.0)
        assert injector.restarts == 0
        assert injector.skipped == 1

    def test_never_crashes_last_live_node(self, env, cluster):
        schedule = parse_fault_schedule("10:crash:0,11:crash:1,12:crash:2")
        injector = FaultInjector(env, cluster, schedule)
        injector.start()
        env.run(until=15.0)
        live = [n for n in cluster.nodes if not n.is_down]
        assert len(live) == 1  # node 2 spared
        assert injector.crashes == 2
        assert injector.skipped == 1

    def test_start_is_idempotent(self, env, cluster):
        injector = FaultInjector(
            env, cluster, parse_fault_schedule("10:crash:1")
        )
        injector.start()
        injector.start()  # second call must not double-schedule
        env.run(until=15.0)
        assert injector.crashes == 1

    def test_metrics_notified(self, env, cluster):
        class Notes:
            def __init__(self):
                self.down, self.up = [], []

            def note_node_down(self, node_id):
                self.down.append((round(self.env_now()), node_id))

            def note_node_up(self, node_id):
                self.up.append((round(self.env_now()), node_id))

        notes = Notes()
        notes.env_now = lambda: env.now
        injector = FaultInjector(
            env, cluster,
            parse_fault_schedule("10:crash:1,25:restart:1"),
            metrics=notes,
        )
        injector.start()
        env.run(until=30.0)
        assert notes.down == [(10, 1)]
        assert notes.up == [(25, 1)]


class TestStochasticInjection:
    def test_requires_rng(self, env, cluster):
        with pytest.raises(ConfigError):
            FaultInjector(
                env, cluster, parse_fault_schedule("mtbf=50,mttr=5")
            )

    def test_nodes_cycle_down_and_up(self, env, cluster):
        schedule = parse_fault_schedule("mtbf=40,mttr=5")
        injector = FaultInjector(
            env, cluster, schedule, rng=random.Random(7)
        )
        injector.start()
        env.run(until=2_000.0)
        assert injector.crashes > 0
        assert injector.restarts > 0
        # Crashed nodes always come back: at most one outstanding outage
        # per node beyond the restarts already performed.
        assert injector.crashes - injector.restarts <= len(cluster.nodes)

    def test_same_seed_same_fault_sequence(self, env, cluster):
        def run_one():
            local_env = type(env)()
            local_cluster = Cluster(
                local_env,
                ClusterConfig(node_count=3, capacity_units_per_s=10.0),
            )
            injector = FaultInjector(
                local_env, local_cluster,
                parse_fault_schedule("mtbf=40,mttr=5"),
                rng=random.Random(11),
            )
            injector.start()
            local_env.run(until=1_000.0)
            return (injector.crashes, injector.restarts, injector.skipped)

        assert run_one() == run_one()

    def test_window_bounds_new_crashes(self, env, cluster):
        schedule = parse_fault_schedule("mtbf=30,mttr=5,start=100,end=200")
        injector = FaultInjector(
            env, cluster, schedule, rng=random.Random(3)
        )
        injector.start()
        env.run(until=99.0)
        assert injector.crashes == 0  # nothing before the window opens
        env.run(until=5_000.0)
        assert injector.crashes > 0
        # Every node is back up once the window is well past.
        assert all(not node.is_down for node in cluster.nodes)
