"""Tests for the transaction executor (2PL + work + 2PC + undo)."""

import pytest

from repro.partitioning import CreateReplica, DeleteReplica, Migrate
from repro.types import TxnStatus

from .conftest import build_stack


class TestNormalExecution:
    def test_local_transaction_commits(self, stack):
        # keys 0 and 3 both live on partition 0 (key % 3).
        txn = stack.tm.create_normal([stack.read(0), stack.read(3)])
        stack.run_txn(txn)
        assert txn.committed
        assert txn.normal_cost_units == pytest.approx(1.0)  # C

    def test_distributed_transaction_costs_double(self, stack):
        txn = stack.tm.create_normal([stack.read(0), stack.read(1)])
        stack.run_txn(txn)
        assert txn.committed
        assert txn.normal_cost_units == pytest.approx(2.0)  # 2C

    def test_write_applies_value(self, stack):
        txn = stack.tm.create_normal([stack.write(0, value=777)])
        stack.run_txn(txn)
        node = stack.cluster.node_for_partition(0)
        assert node.store.read(0) == 777

    def test_locks_released_after_commit(self, stack):
        txn = stack.tm.create_normal([stack.write(0), stack.read(1)])
        stack.run_txn(txn)
        for node in stack.cluster.nodes:
            assert node.locks.locked_keys(txn.txn_id) == frozenset()

    def test_latency_recorded(self, stack):
        txn = stack.tm.create_normal([stack.read(0)])
        stack.run_txn(txn)
        assert txn.latency is not None and txn.latency > 0


class TestLockContention:
    def test_conflicting_writes_serialise(self, stack):
        first = stack.tm.create_normal([stack.write(0, value=1)])
        second = stack.tm.create_normal([stack.write(0, value=2)])
        stack.tm.submit(first)
        stack.tm.submit(second)
        stack.env.run(until=100)
        assert first.committed and second.committed
        assert stack.cluster.node_for_partition(0).store.read(0) == 2

    def test_lock_timeout_aborts(self):
        stack = build_stack(lock_timeout_s=1.0, capacity=0.1)
        # First txn occupies the CPU for 10s while holding the lock.
        blocker = stack.tm.create_normal([stack.write(0)])
        waiter = stack.tm.create_normal([stack.write(0)])
        stack.tm.submit(blocker)
        stack.tm.submit(waiter)
        stack.env.run(until=200)
        assert blocker.committed
        assert waiter.status is TxnStatus.ABORTED
        assert "lock wait" in waiter.abort_reason

    def test_deadlock_victim_aborts_and_survivor_commits(self):
        stack = build_stack(capacity=0.5, lock_timeout_s=500.0)
        # Two transactions acquiring the same keys in opposite order;
        # slow capacity makes their lock phases overlap.
        txn_a = stack.tm.create_normal([stack.write(0), stack.write(3)])
        txn_b = stack.tm.create_normal([stack.write(3), stack.write(0)])
        stack.tm.submit(txn_a)
        stack.tm.submit(txn_b)
        stack.env.run(until=2000)
        outcomes = {txn_a.status, txn_b.status}
        assert TxnStatus.COMMITTED in outcomes
        assert TxnStatus.ABORTED in outcomes
        aborted = txn_a if txn_a.status is TxnStatus.ABORTED else txn_b
        assert "deadlock" in aborted.abort_reason

    def test_aborted_write_is_undone(self):
        stack = build_stack(capacity=0.5, lock_timeout_s=500.0,
                            max_attempts=1)
        original_0 = stack.cluster.node_for_partition(0).store.read(0)
        original_3 = stack.cluster.node_for_partition(0).store.read(3)
        txn_a = stack.tm.create_normal(
            [stack.write(0, 111), stack.write(3, 111)]
        )
        txn_b = stack.tm.create_normal(
            [stack.write(3, 222), stack.write(0, 222)]
        )
        stack.tm.submit(txn_a)
        stack.tm.submit(txn_b)
        stack.env.run(until=2000)
        committed = txn_a if txn_a.committed else txn_b
        value = committed.queries[0].value
        store = stack.cluster.node_for_partition(0).store
        # The committed value must be present; the aborted one nowhere.
        assert store.read(0) == value
        assert store.read(3) == value
        assert {store.read(0), store.read(3)} != {original_0, original_3}


class TestRepartitionExecution:
    def test_migration_moves_record_and_map(self, stack):
        op = Migrate(op_id=0, key=0, source=0, destination=1)
        txn = stack.tm.create_repartition([op])
        stack.run_txn(txn)
        assert txn.committed
        assert stack.pmap.primary_of(0) == 1
        assert 0 not in stack.cluster.node_for_partition(0).store
        assert 0 in stack.cluster.node_for_partition(1).store

    def test_migration_preserves_value(self, stack):
        node0 = stack.cluster.node_for_partition(0)
        node0.store.get(0).write(4242)
        txn = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=2)]
        )
        stack.run_txn(txn)
        assert stack.cluster.node_for_partition(2).store.read(0) == 4242

    def test_create_replica(self, stack):
        op = CreateReplica(op_id=0, key=0, source=0, destination=1)
        txn = stack.tm.create_repartition([op])
        stack.run_txn(txn)
        assert set(stack.pmap.replicas_of(0)) == {0, 1}
        assert 0 in stack.cluster.node_for_partition(1).store

    def test_delete_replica(self, stack):
        stack.run_txn(
            stack.tm.create_repartition(
                [CreateReplica(op_id=0, key=0, source=0, destination=1)]
            )
        )
        stack.run_txn(
            stack.tm.create_repartition(
                [DeleteReplica(op_id=1, key=0, partition=1)]
            )
        )
        assert stack.pmap.replicas_of(0) == (0,)
        assert 0 not in stack.cluster.node_for_partition(1).store

    def test_already_applied_op_skipped(self, stack):
        stack.run_txn(
            stack.tm.create_repartition(
                [Migrate(op_id=0, key=0, source=0, destination=1)]
            )
        )
        applied = []
        stack.executor.on_rep_op_applied = (
            lambda op, txn: applied.append(op.op_id)
        )
        # Second transaction with the same logical move: a no-op.
        txn = stack.tm.create_repartition(
            [Migrate(op_id=1, key=0, source=0, destination=1)]
        )
        stack.run_txn(txn)
        assert txn.committed
        assert applied == [1]
        assert stack.pmap.primary_of(0) == 1

    def test_rep_cost_charged(self, stack):
        txn = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.run_txn(txn)
        assert txn.rep_cost_units == pytest.approx(
            stack.cost_model.rep_op_cost
        )

    def test_injected_failure_aborts_and_undoes(self):
        stack = build_stack(rep_op_failure_probability=1.0)
        txn = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=1)  # before the retry loop resubmits
        assert txn.status is TxnStatus.ABORTED
        assert "injected failure" in txn.abort_reason
        assert stack.pmap.primary_of(0) == 0
        assert 0 not in stack.cluster.node_for_partition(1).store

    @pytest.mark.parametrize("migrate_first", [True, False])
    def test_migrate_beside_create_replica_of_same_tuple(self, migrate_first):
        """A copy whose source moved away while it waited for the lock
        re-validates like a move does; it must not read a vanished tuple."""
        stack = build_stack(capacity=1.0)
        ops = [
            Migrate(op_id=0, key=0, source=0, destination=1),
            CreateReplica(op_id=1, key=0, source=0, destination=2),
        ]
        if not migrate_first:
            ops.reverse()
        txns = [stack.tm.create_repartition([op]) for op in ops]
        for txn in txns:
            stack.tm.submit(txn)
        stack.env.run(until=1000)
        for txn in txns:
            assert txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)
            if txn.status is TxnStatus.ABORTED:
                assert txn.abort_cause is not None
        holders = {
            node.partition_id
            for node in stack.cluster.nodes
            if 0 in node.store
        }
        assert set(stack.pmap.replicas_of(0)) == holders

    def test_op_into_retired_node_dropped_at_staging(self):
        """An op whose destination retired can never apply: it is
        reported and dropped, and the rest of the transaction commits
        instead of aborting ``stale_route`` on every retry."""
        stack = build_stack()
        retired = stack.cluster.add_node()
        stack.cluster.activate(retired.node_id)
        stack.cluster.begin_drain(retired.node_id)
        stack.cluster.retire(retired.node_id)
        applied = []
        stack.executor.on_rep_op_applied = (
            lambda op, txn: applied.append(op.op_id)
        )
        txn = stack.tm.create_repartition(
            [
                Migrate(
                    op_id=0, key=0, source=0,
                    destination=retired.partition_id,
                ),
                Migrate(op_id=1, key=1, source=1, destination=2),
            ]
        )
        stack.run_txn(txn)
        assert txn.committed and txn.attempts == 1
        assert stack.tm.total_retries == 0
        assert applied == [0, 1]
        assert stack.pmap.replicas_of(0) == (0,)
        assert 0 in stack.cluster.node_for_partition(0).store
        assert len(retired.store) == 0
        assert stack.pmap.replicas_of(1) == (2,)
        assert 1 in stack.cluster.node_for_partition(2).store


class TestPiggybackedExecution:
    def test_carrier_applies_ops_on_commit(self, stack):
        txn = stack.tm.create_normal([stack.write(0), stack.read(1)])
        txn.attach_rep_ops(
            999, [Migrate(op_id=0, key=1, source=1, destination=0)]
        )
        stack.run_txn(txn)
        assert txn.committed
        assert stack.pmap.primary_of(1) == 0
        assert txn.rep_cost_units > 0
        assert txn.normal_cost_units > 0

    def test_carrier_failure_leaves_data_unmoved(self):
        stack = build_stack(rep_op_failure_probability=1.0, max_attempts=1)
        txn = stack.tm.create_normal([stack.write(0)])
        txn.attach_rep_ops(
            999, [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=10)
        assert txn.status is TxnStatus.ABORTED
        assert stack.pmap.primary_of(0) == 0
        # The normal write must have been rolled back too.
        assert stack.cluster.node_for_partition(0).store.read(0) == 0


class TestStaleRoutingRecovery:
    def test_transaction_follows_migrated_tuple(self, stack):
        """A normal txn queued before a migration still finds the tuple."""
        migration = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        reader = stack.tm.create_normal([stack.write(0, value=5)])
        stack.tm.submit(migration)
        stack.tm.submit(reader)
        stack.env.run(until=100)
        assert migration.committed
        assert reader.committed
        assert stack.cluster.node_for_partition(1).store.read(0) == 5


class TestNodeDownExecution:
    def test_txn_touching_down_node_aborts_with_cause(self):
        stack = build_stack(max_attempts=1)
        node = stack.cluster.node(1)
        node.enable_fault_injection()
        node.crash()
        txn = stack.tm.create_normal([stack.write(1)])  # key 1 -> node 1
        stack.tm.submit(txn)
        stack.env.run(until=50)
        assert txn.status is TxnStatus.ABORTED
        assert txn.abort_cause == "node_down"

    def test_retry_commits_after_restart(self):
        stack = build_stack(max_attempts=3)
        node = stack.cluster.node(1)
        node.enable_fault_injection()
        node.crash()
        txn = stack.tm.create_normal([stack.write(1, value=9)])
        stack.tm.submit(txn)

        def fixer():
            yield stack.env.timeout(0.05)
            node.restart()

        stack.env.process(fixer())
        stack.env.run(until=50)
        assert txn.committed
        assert txn.attempts >= 2
        assert stack.tm.total_retries >= 1
        assert node.store.read(1) == 9

    def test_distributed_txn_spanning_down_node_aborts(self):
        """One dead participant aborts the whole distributed txn; the
        surviving node's state is untouched."""
        stack = build_stack(max_attempts=1)
        live = stack.cluster.node(0)
        before = live.store.read(0)
        stack.cluster.node(1).enable_fault_injection()
        stack.cluster.node(1).crash()
        txn = stack.tm.create_normal(
            [stack.write(0, value=123), stack.write(1, value=456)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=50)
        assert txn.status is TxnStatus.ABORTED
        assert txn.abort_cause == "node_down"
        assert live.store.read(0) == before  # undo ran on the survivor
