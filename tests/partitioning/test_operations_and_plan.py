"""Tests for repartition operations, plans, and plan diffing."""

import copy
import pickle

import pytest

from repro.errors import PartitioningError
from repro.partitioning import (
    CreateReplica,
    DeleteReplica,
    Migrate,
    PartitionPlan,
    diff_plan,
    plan_from_map,
)
from repro.routing import PartitionMap


class TestOperations:
    def test_migrate_touches_both_partitions(self):
        op = Migrate(op_id=0, key=1, source=0, destination=2)
        assert op.partitions_touched == frozenset((0, 2))
        assert op.kind == "migrate"

    def test_create_replica_touches_both(self):
        op = CreateReplica(op_id=0, key=1, source=1, destination=3)
        assert op.partitions_touched == frozenset((1, 3))
        assert op.kind == "create-replica"

    def test_delete_replica_touches_one(self):
        op = DeleteReplica(op_id=0, key=1, partition=4)
        assert op.partitions_touched == frozenset((4,))
        assert op.kind == "delete-replica"

    def test_migrate_same_partition_rejected(self):
        with pytest.raises(PartitioningError):
            Migrate(op_id=0, key=1, source=2, destination=2)

    def test_create_same_partition_rejected(self):
        with pytest.raises(PartitioningError):
            CreateReplica(op_id=0, key=1, source=2, destination=2)

    def test_benefit_accumulator_defaults_zero(self):
        op = Migrate(op_id=0, key=1, source=0, destination=1)
        assert op.benefit == 0.0

    @pytest.mark.parametrize(
        "op",
        [
            Migrate(op_id=3, key=7, benefit=1.5, source=0, destination=2),
            CreateReplica(op_id=4, key=8, benefit=2.5, source=1, destination=3),
            DeleteReplica(op_id=5, key=9, benefit=3.5, partition=4),
        ],
        ids=lambda op: op.kind,
    )
    def test_slotted_and_still_picklable(self, op):
        """A plan is ~94k of these at the paper's size: no ``__dict__``
        each, and they still cross the process boundary of the parallel
        engine and the result cache."""
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.note = "ad hoc"
        # Protocols 0 and 1 pickle no slotted class without __getstate__;
        # multiprocessing and everything else here use the default.
        clones = [copy.copy(op), copy.deepcopy(op)] + [
            pickle.loads(pickle.dumps(op, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is type(op) and clone is not op
            assert clone == op and clone.benefit == op.benefit  # not compared
            assert clone.partitions_touched == op.partitions_touched


class TestPartitionPlan:
    def test_assign_and_lookup(self):
        plan = PartitionPlan()
        plan.assign(5, 2)
        assert plan.target_of(5) == 2
        assert plan.target_of(6) is None
        assert 5 in plan and 6 not in plan

    def test_effective_partition_falls_back_to_map(self):
        pmap = PartitionMap()
        pmap.assign(1, 0)
        plan = PartitionPlan()
        assert plan.effective_partition(1, pmap) == 0
        plan.assign(1, 3)
        assert plan.effective_partition(1, pmap) == 3

    def test_partitions_used(self):
        plan = PartitionPlan({1: 0, 2: 0, 3: 4})
        assert plan.partitions_used() == frozenset((0, 4))


class TestDiffPlan:
    def test_emits_migrations_only_for_moves(self):
        pmap = PartitionMap()
        for key in range(4):
            pmap.assign(key, 0)
        plan = PartitionPlan({0: 0, 1: 1, 2: 2, 3: 0})
        ops = diff_plan(pmap, plan)
        moved = {(op.key, op.source, op.destination) for op in ops}
        assert moved == {(1, 0, 1), (2, 0, 2)}

    def test_all_ops_are_migrations(self):
        pmap = PartitionMap()
        pmap.assign(0, 0)
        plan = PartitionPlan({0: 1})
        ops = diff_plan(pmap, plan)
        assert all(isinstance(op, Migrate) for op in ops)

    def test_op_ids_sequential_from_start(self):
        pmap = PartitionMap()
        for key in range(3):
            pmap.assign(key, 0)
        plan = PartitionPlan({0: 1, 1: 1, 2: 1})
        ops = diff_plan(pmap, plan, start_op_id=10)
        assert [op.op_id for op in ops] == [10, 11, 12]

    def test_unmapped_key_rejected(self):
        with pytest.raises(PartitioningError, match="unmapped"):
            diff_plan(PartitionMap(), PartitionPlan({1: 0}))

    def test_identity_plan_produces_no_ops(self):
        pmap = PartitionMap()
        for key in range(5):
            pmap.assign(key, key % 2)
        assert diff_plan(pmap, plan_from_map(pmap)) == []


class TestPlanFromMap:
    def test_snapshot_matches_primaries(self):
        pmap = PartitionMap()
        pmap.assign(1, 3)
        pmap.assign(2, 4)
        plan = plan_from_map(pmap)
        assert plan.target_of(1) == 3
        assert plan.target_of(2) == 4
