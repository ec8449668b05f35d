"""Fixtures for core-layer tests: a wired system with a pending plan."""

from dataclasses import dataclass

import pytest

from repro.core import ApplyAllScheduler, Repartitioner, generate_and_rank
from repro.core.session import RepartitionSession
from repro.partitioning import PartitionPlan, diff_plan
from repro.workload import TransactionType, WorkloadProfile

from ..txn.conftest import Stack, build_stack


@dataclass
class CoreHarness:
    stack: Stack
    profile: WorkloadProfile
    plan: PartitionPlan
    specs: list
    repartitioner: Repartitioner

    def session(self) -> RepartitionSession:
        """A bare session holding the ranked specs, no scheduler wired."""
        session = RepartitionSession(
            self.stack.env, self.stack.tm, self.stack.metrics
        )
        session.add(self.specs)
        return session


def build_harness(n_types=4, frequencies=None, **stack_kwargs):
    """Types of 2 keys each, split over partitions 0/1, plan collocates."""
    stack = build_stack(keys=2 * n_types + 2, **stack_kwargs)
    if frequencies is None:
        frequencies = [float(n_types - i) for i in range(n_types)]
    types = [
        TransactionType(i, (2 * i, 2 * i + 1), frequencies[i])
        for i in range(n_types)
    ]
    profile = WorkloadProfile(table="t", types=types)
    # Rebuild placement: each type split across partitions 1 and 2, so
    # collocating it on partition 0 takes two migrations (two ops per
    # repartition transaction).
    for ttype in types:
        k0, k1 = ttype.keys
        if stack.pmap.primary_of(k0) != 1:
            move_record(stack, k0, 1)
        if stack.pmap.primary_of(k1) != 2:
            move_record(stack, k1, 2)
    plan = PartitionPlan()
    for ttype in types:
        plan.assign(ttype.keys[0], 0)
        plan.assign(ttype.keys[1], 0)
    ops = diff_plan(stack.pmap, plan)
    specs = generate_and_rank(ops, plan, stack.pmap, profile, stack.cost_model)
    repartitioner = Repartitioner(
        stack.env, stack.tm, stack.router, stack.metrics, stack.cost_model,
        ApplyAllScheduler(),
    )
    return CoreHarness(stack, profile, plan, specs, repartitioner)


def move_record(stack, key, destination):
    """Teleport a record (test setup only, not a transaction)."""
    source = stack.pmap.primary_of(key)
    if source == destination:
        return
    record = stack.cluster.node_for_partition(source).store.delete(key)
    stack.cluster.node_for_partition(destination).store.insert(record)
    stack.pmap.move(key, source, destination)


@pytest.fixture
def harness():
    return build_harness()
