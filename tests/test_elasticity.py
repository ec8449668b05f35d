"""Tests for the elasticity schedule DSL, chunking, and planners."""

import pytest

from repro.core.ranking import RepartitionTransactionSpec, chunk_specs
from repro.elasticity import (
    ElasticityEvent,
    ElasticityScheduleConfig,
    parse_elasticity_schedule,
)
from repro.errors import ConfigError, PartitioningError
from repro.partitioning.elastic import plan_drain, plan_rebalance
from repro.partitioning.operations import DeleteReplica, Migrate
from repro.routing import PartitionMap, PartitionMapStore
from repro.workload import TransactionType, WorkloadProfile


class TestParsing:
    def test_deterministic_events(self):
        schedule = parse_elasticity_schedule("200:add:5,600:drain:7")
        assert schedule.events == (
            ElasticityEvent(at_s=200.0, action="add", value=5),
            ElasticityEvent(at_s=600.0, action="drain", value=7),
        )
        assert schedule.queue_high is None
        assert schedule.enabled

    def test_events_sorted_by_time(self):
        schedule = parse_elasticity_schedule("600:drain:7,200:add:5")
        assert [e.at_s for e in schedule.events] == [200.0, 600.0]

    def test_policy_form(self):
        schedule = parse_elasticity_schedule("high=50,low=2,check=4,max=8")
        assert schedule.queue_high == 50.0
        assert schedule.queue_low == 2.0
        assert schedule.check_intervals == 4
        assert schedule.max_nodes == 8
        assert schedule.min_nodes == 1
        assert schedule.events == ()
        assert schedule.enabled

    def test_policy_pump_knobs(self):
        schedule = parse_elasticity_schedule(
            "high=50,low=2,grace=3,escalate=5,ops=16"
        )
        assert schedule.grace_intervals == 3
        assert schedule.escalation_intervals == 5
        assert schedule.max_ops_per_txn == 16

    @pytest.mark.parametrize("text", [
        "",
        "200:add",                # missing value field
        "200:shrink:1",           # unknown action
        "abc:add:2",              # non-numeric time
        "200:add:x",              # non-numeric value
        "200:add:0",              # must add at least one node
        "200:drain:-1",           # bad node id
        "-5:add:1",               # negative time
        "200:add:1,high=50",      # mixed grammars
        "high=50",                # low missing
        "high=2,low=50",          # inverted watermarks
        "high=50,low=2,check=0",  # bad check count
        "high=50,low=2,min=0",    # bad min
        "high=50,low=2,max=0",    # max below min
        "high=50,low=2,foo=1",    # unknown key
        "high=50,low=abc",        # non-numeric value
        "nan:add:1",              # every `<` guard is false for NaN
        "inf:drain:2",            # never happens
        "high=nan,low=1",
        "high=inf,low=1",
        "high=5,low=nan",
        "high=5,low=1,check=2.9",  # integral key, fractional value
        "high=5,low=1,ops=inf",   # int(inf) is an OverflowError
        "high=5,low=1,max=nan",
        # An integer past float range, refused in key=value form too.
        pytest.param("0:add:" + "9" * 400, id="0:add:9*400"),
    ])
    def test_malformed_raises_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_elasticity_schedule(text)

    def test_empty_schedule_disabled(self):
        assert not ElasticityScheduleConfig().enabled

    def test_bad_pump_config_rejected(self):
        with pytest.raises(ConfigError):
            ElasticityScheduleConfig(grace_intervals=-1)
        with pytest.raises(ConfigError):
            ElasticityScheduleConfig(escalation_intervals=0)
        with pytest.raises(ConfigError):
            ElasticityScheduleConfig(max_ops_per_txn=0)


def spec(op_count, type_id=3, benefit=10.0, cost=5.0):
    ops = [
        Migrate(op_id=i, key=i, source=0, destination=1)
        for i in range(op_count)
    ]
    return RepartitionTransactionSpec(
        ops=ops, type_id=type_id, benefit=benefit, cost=cost
    )


class TestChunkSpecs:
    def test_small_specs_pass_through(self):
        specs = [spec(3), spec(4)]
        assert chunk_specs(specs, 4) == specs

    def test_oversized_spec_is_split(self):
        chunks = chunk_specs([spec(10)], 4)
        assert [len(c.ops) for c in chunks] == [4, 4, 2]
        # All operations survive, in order.
        assert [op.key for c in chunks for op in c.ops] == list(range(10))

    def test_benefit_density_preserved(self):
        original = spec(10, benefit=20.0, cost=8.0)
        for chunk in chunk_specs([original], 3):
            assert chunk.benefit_density == pytest.approx(
                original.benefit_density
            )

    def test_only_first_chunk_keeps_type_id(self):
        chunks = chunk_specs([spec(10, type_id=7)], 4)
        assert [c.type_id for c in chunks] == [7, -1, -1]

    def test_bad_max_ops_rejected(self):
        with pytest.raises(ValueError):
            chunk_specs([], 0)


def epoch_of(assignments, replicas=()):
    """An epoch over ``{key: primary}`` plus extra ``(key, pid)`` replicas."""
    pmap = PartitionMap()
    for key, pid in assignments.items():
        pmap.assign(key, pid)
    for key, pid in replicas:
        pmap.add_replica(key, pid)
    return PartitionMapStore(pmap).current_epoch


class TestPlanDrain:
    def test_single_replica_tuples_migrate_to_least_loaded(self):
        epoch = epoch_of({0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 2})
        plan, ops = plan_drain(epoch, [0], [0, 1, 2])
        assert all(isinstance(op, Migrate) for op in ops)
        assert [op.key for op in ops] == [0, 1]
        # Partition 1 holds 1 tuple, partition 2 holds 3: both drained
        # tuples land on 1 (it stays least-loaded after the first move
        # only until the loads tie, then ids break the tie).
        assert ops[0].destination == 1
        assert ops[1].destination == 1
        assert plan.target_of(0) == 1

    def test_spare_replicas_deleted_not_migrated(self):
        epoch = epoch_of({0: 0, 1: 1}, replicas=[(0, 2)])
        plan, ops = plan_drain(epoch, [0], [0, 1, 2])
        assert len(ops) == 1
        assert isinstance(ops[0], DeleteReplica)
        assert ops[0].partition == 0

    def test_draining_partition_never_a_target(self):
        epoch = epoch_of({0: 0, 1: 1, 2: 2})
        _plan, ops = plan_drain(epoch, [0], [0, 1, 2])
        assert all(op.destination != 0 for op in ops)

    def test_no_survivors_raises(self):
        epoch = epoch_of({0: 0})
        with pytest.raises(PartitioningError):
            plan_drain(epoch, [0], [0])

    def test_deterministic(self):
        epoch = epoch_of({k: k % 3 for k in range(30)})
        first = plan_drain(epoch, [1], [0, 1, 2])[1]
        second = plan_drain(epoch, [1], [0, 1, 2])[1]
        assert [(op.key, op.destination) for op in first] == [
            (op.key, op.destination) for op in second
        ]


class TestPlanRebalance:
    def test_fills_joiner_to_fair_share(self):
        epoch = epoch_of({k: k % 2 for k in range(12)})
        plan, ops = plan_rebalance(epoch, [2], [0, 1, 2])
        # 12 tuples over 3 targets: the joiner wants 4.
        assert len(ops) == 4
        assert all(op.destination == 2 for op in ops)
        assert all(plan.target_of(op.key) == 2 for op in ops)

    def test_coldest_tuples_move_first(self):
        epoch = epoch_of({k: 0 for k in range(4)})
        heat = {0: 9.0, 1: 1.0, 2: 5.0, 3: 0.5}
        profile = WorkloadProfile(
            "t", [TransactionType(k, (k,), f) for k, f in heat.items()]
        )
        _plan, ops = plan_rebalance(epoch, [1], [0, 1], profile)
        # The joiner wants 2 tuples; the two coldest (3 then 1) move.
        assert [op.key for op in ops] == [3, 1]

    def test_multi_replica_tuples_left_alone(self):
        epoch = epoch_of({k: 0 for k in range(4)}, replicas=[(0, 2)])
        _plan, ops = plan_rebalance(epoch, [1], [0, 1, 2])
        assert 0 not in [op.key for op in ops]

    def test_balanced_cluster_needs_nothing(self):
        epoch = epoch_of({0: 0, 1: 1, 2: 2})
        plan, ops = plan_rebalance(epoch, [2], [0, 1, 2])
        assert ops == []

    def test_no_joiners_is_a_no_op(self):
        epoch = epoch_of({0: 0})
        _plan, ops = plan_rebalance(epoch, [], [0])
        assert ops == []

    def test_unknown_joiner_raises(self):
        epoch = epoch_of({0: 0})
        with pytest.raises(PartitioningError):
            plan_rebalance(epoch, [5], [0, 1])

    def test_donors_never_pushed_below_share(self):
        epoch = epoch_of({k: k % 2 for k in range(10)})
        _plan, ops = plan_rebalance(epoch, [2], [0, 1, 2])
        loads = {0: 5, 1: 5, 2: 0}
        for op in ops:
            loads[op.source] -= 1
            loads[op.destination] += 1
        share = 10 // 3
        assert all(load >= share for load in loads.values())
