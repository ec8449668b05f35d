"""Tests for workload-history monitoring and the automatic trigger loop."""

import gc

import pytest

from repro.core import (
    AutoRepartitioner,
    AutoRepartitionerConfig,
    ApplyAllScheduler,
    Repartitioner,
    WorkloadMonitor,
)
from repro.partitioning import OptimizerConfig, RepartitionOptimizer
from repro.routing import Query
from repro.types import AccessMode

from ..txn.conftest import build_stack


@pytest.fixture
def stack():
    return build_stack()


def make_txn(stack, type_id, keys):
    return stack.tm.create_normal(
        [Query("t", k, AccessMode.READ) for k in keys], type_id=type_id
    )


class TestWorkloadMonitor:
    def test_observe_counts_arrivals(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        for _ in range(3):
            monitor.observe(make_txn(stack, 1, (0, 1)))
        monitor.observe(make_txn(stack, 2, (2, 3)))
        stack.env.run(until=10)  # roll the interval
        profile = monitor.observed_profile()
        assert profile.type(1).frequency == 3.0
        assert profile.type(2).frequency == 1.0
        assert monitor.total_observed == 4

    def test_keys_recorded_sorted(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        monitor.observe(make_txn(stack, 1, (5, 2, 9)))
        stack.env.run(until=10)
        assert monitor.observed_profile().type(1).keys == (2, 5, 9)

    def test_window_evicts_old_intervals(self, stack):
        monitor = WorkloadMonitor(
            stack.env, interval_s=10.0, window_intervals=2
        )
        monitor.observe(make_txn(stack, 1, (0,)))
        stack.env.run(until=10)
        stack.env.run(until=30)  # two more (empty) intervals roll past
        assert monitor.observed_profile().types == []

    def test_observed_rate(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        for _ in range(20):
            monitor.observe(make_txn(stack, 1, (0,)))
        stack.env.run(until=10)
        assert monitor.observed_rate_txn_per_s() == pytest.approx(2.0)

    def test_min_arrivals_filters_noise(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        monitor.observe(make_txn(stack, 1, (0,)))
        for _ in range(5):
            monitor.observe(make_txn(stack, 2, (1,)))
        stack.env.run(until=10)
        profile = monitor.observed_profile(min_arrivals=2)
        assert [t.type_id for t in profile.types] == [2]

    def test_resubmissions_counted_once(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        txn = make_txn(stack, 1, (0, 1))
        monitor.observe(txn)
        monitor.observe(txn)  # retry of the same transaction
        stack.env.run(until=10)
        assert monitor.observed_profile().type(1).frequency == 1.0
        assert monitor.total_observed == 1

    def test_untyped_transactions_ignored(self, stack):
        monitor = WorkloadMonitor(stack.env, interval_s=10.0)
        monitor.observe(make_txn(stack, None, (0,)))
        stack.env.run(until=10)
        assert monitor.total_observed == 0

    def test_window_validation(self, stack):
        with pytest.raises(ValueError):
            WorkloadMonitor(stack.env, window_intervals=0)


class TestAutoRepartitioner:
    def build(self, stack, threshold=0.5):
        monitor = WorkloadMonitor(stack.env, interval_s=20.0, table="t")
        repartitioner = Repartitioner(
            stack.env, stack.tm, stack.router, stack.metrics,
            stack.cost_model, ApplyAllScheduler(),
        )
        optimizer = RepartitionOptimizer(
            stack.cost_model,
            stack.cluster.partition_ids,
            OptimizerConfig(utilisation_threshold=threshold),
        )
        auto = AutoRepartitioner(
            repartitioner,
            monitor,
            optimizer,
            stack.metrics,
            capacity_units_per_s=stack.cluster.total_capacity_units_per_s,
            config=AutoRepartitionerConfig(min_arrivals=1),
        )
        return monitor, repartitioner, auto

    def test_no_trigger_below_threshold(self):
        stack = build_stack(capacity=1000.0)
        monitor, _repartitioner, auto = self.build(stack, threshold=0.5)
        monitor.observe(make_txn(stack, 1, (0, 1)))  # distributed type
        stack.env.run(until=45)
        assert auto.plans_submitted == 0

    def test_trigger_deploys_observed_plan(self):
        stack = build_stack(capacity=1.0)  # tiny capacity -> overload
        monitor, repartitioner, auto = self.build(stack, threshold=0.5)
        # A hot distributed type observed 30 times in the window.
        for _ in range(30):
            monitor.observe(make_txn(stack, 1, (0, 1)))  # partitions 0,1
        stack.env.run(until=45)
        assert auto.plans_submitted == 1
        stack.env.run(until=400)
        assert repartitioner.session is not None
        assert repartitioner.session.is_complete
        # The observed type's keys are now collocated.
        homes = {stack.pmap.primary_of(0), stack.pmap.primary_of(1)}
        assert len(homes) == 1

    def test_re_plan_runs_with_the_collector_paused(self, collector_at_submit):
        stack = build_stack(capacity=1.0)
        monitor, _repartitioner, auto = self.build(stack, threshold=0.5)
        for _ in range(30):
            monitor.observe(make_txn(stack, 1, (0, 1)))
        assert gc.isenabled()
        stack.env.run(until=45)
        assert auto.plans_submitted == 1 and collector_at_submit == [False]
        assert gc.isenabled()

    def test_cooldown_prevents_thrashing(self):
        stack = build_stack(capacity=0.5)
        monitor, _repartitioner, auto = self.build(stack, threshold=0.1)
        for _ in range(50):
            monitor.observe(make_txn(stack, 1, (0, 1)))
        stack.env.run(until=45)
        first = auto.plans_submitted
        # Keep the same pressure; no new distributed types exist, so no
        # further session may start even after the cooldown.
        for _ in range(50):
            monitor.observe(make_txn(stack, 1, (0, 1)))
        stack.env.run(until=300)
        assert auto.plans_submitted == first == 1
