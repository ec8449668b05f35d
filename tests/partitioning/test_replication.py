"""Tests for the read-replication planner (CreateReplica/DeleteReplica)."""

import pytest

from repro.errors import PartitioningError
from repro.partitioning import (
    CostModel,
    CreateReplica,
    DeleteReplica,
    ReadReplicationPlanner,
    ReplicationConfig,
)
from repro.routing import PartitionMap
from repro.workload import TransactionType, WorkloadProfile


@pytest.fixture
def profile():
    # Type 0 is far hotter than the rest.
    types = [
        TransactionType(0, (0, 1), 100.0),
        TransactionType(1, (2, 3), 1.0),
        TransactionType(2, (4, 5), 1.0),
        TransactionType(3, (6, 7), 1.0),
        TransactionType(4, (8, 9), 1.0),
    ]
    return WorkloadProfile(table="t", types=types)


@pytest.fixture
def pmap():
    mapping = PartitionMap()
    for key in range(10):
        mapping.assign(key, key % 3)
    return mapping


@pytest.fixture
def planner():
    return ReadReplicationPlanner(
        [0, 1, 2], ReplicationConfig(target_replicas=2, hot_fraction=0.2)
    )


class TestHotKeys:
    def test_hottest_keys_selected(self, planner, profile):
        hot = planner.hot_keys(profile)
        assert set(hot) == {0, 1}  # 20% of 10 keys, heat 100 each

    def test_hot_fraction_bounds(self, profile):
        planner = ReadReplicationPlanner(
            [0, 1], ReplicationConfig(hot_fraction=1.0)
        )
        assert len(planner.hot_keys(profile)) == 10

    def test_config_validation(self):
        with pytest.raises(PartitioningError):
            ReplicationConfig(target_replicas=0)
        with pytest.raises(PartitioningError):
            ReplicationConfig(hot_fraction=0.0)
        with pytest.raises(PartitioningError):
            ReadReplicationPlanner([])


class TestPlanReplication:
    def test_ops_bring_hot_keys_to_target(self, planner, profile, pmap):
        ops = planner.plan_replication(profile, pmap)
        assert all(isinstance(op, CreateReplica) for op in ops)
        assert {op.key for op in ops} == {0, 1}
        # One new replica each (target 2, currently 1).
        assert len(ops) == 2

    def test_destination_avoids_existing_replicas(self, planner, profile,
                                                  pmap):
        for op in planner.plan_replication(profile, pmap):
            assert op.destination not in pmap.replicas_of(op.key)

    def test_already_replicated_keys_skipped(self, planner, profile, pmap):
        pmap.add_replica(0, 1)
        pmap.add_replica(1, 2)
        assert planner.plan_replication(profile, pmap) == []

    def test_target_capped_by_partition_count(self, profile, pmap):
        planner = ReadReplicationPlanner(
            [0, 1], ReplicationConfig(target_replicas=5, hot_fraction=0.2)
        )
        ops = planner.plan_replication(profile, pmap)
        # Only 2 partitions exist; keys 0/1 already have one replica on
        # partition 0/1 respectively -> one extra copy each at most.
        for op in ops:
            assert op.destination in (0, 1)

    def test_op_ids_sequential(self, planner, profile, pmap):
        ops = planner.plan_replication(profile, pmap, start_op_id=7)
        assert [op.op_id for op in ops] == [7, 8]


class TestPlanCleanup:
    def test_cold_extra_replicas_deleted(self, planner, profile, pmap):
        pmap.add_replica(5, 0)  # key 5 is cold but replicated
        ops = planner.plan_cleanup(profile, pmap)
        assert len(ops) == 1
        op = ops[0]
        assert isinstance(op, DeleteReplica)
        assert op.key == 5
        assert op.partition == 0  # the non-primary copy

    def test_hot_replicas_kept(self, planner, profile, pmap):
        pmap.add_replica(0, 1)  # hot key: keep it
        assert planner.plan_cleanup(profile, pmap) == []

    def test_primary_never_deleted(self, planner, profile, pmap):
        pmap.add_replica(4, 0)  # key 4's primary is partition 1
        pmap.add_replica(4, 2)
        ops = planner.plan_cleanup(profile, pmap)
        primaries = {pmap.primary_of(op.key) for op in ops}
        for op in ops:
            assert op.partition != pmap.primary_of(op.key)


class TestBuildSpecs:
    def test_specs_ranked_by_heat_density(self, planner, profile, pmap):
        ops = planner.plan_replication(profile, pmap)
        specs = planner.build_specs(ops, profile, CostModel())
        densities = [s.benefit_density for s in specs]
        assert densities == sorted(densities, reverse=True)
        assert all(s.benefit > 0 for s in specs)

    def test_specs_one_per_key(self, planner, profile, pmap):
        ops = planner.plan_replication(profile, pmap)
        specs = planner.build_specs(ops, profile, CostModel())
        assert len(specs) == 2
        assert {s.ops[0].key for s in specs} == {0, 1}


class TestEndToEnd:
    def test_replication_deploys_through_soap(self, profile):
        """Replica creation runs through the full scheduler pipeline."""
        from repro.core import ApplyAllScheduler, Repartitioner

        from ..txn.conftest import build_stack

        stack = build_stack(keys=10)
        planner = ReadReplicationPlanner(
            stack.cluster.partition_ids,
            ReplicationConfig(target_replicas=2, hot_fraction=0.2),
        )
        ops = planner.plan_replication(profile, stack.pmap)
        specs = planner.build_specs(ops, profile, stack.cost_model)
        repartitioner = Repartitioner(
            stack.env, stack.tm, stack.router, stack.metrics,
            stack.cost_model, ApplyAllScheduler(),
        )
        repartitioner.submit(specs)
        stack.env.run(until=1000)
        assert repartitioner.session.is_complete
        for key in (0, 1):
            replicas = stack.pmap.replicas_of(key)
            assert len(replicas) == 2
            for pid in replicas:
                node = stack.cluster.node_for_partition(pid)
                assert key in node.store
