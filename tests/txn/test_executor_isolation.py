"""Executor tests: isolation levels, replica writes, cost accounting."""

import pytest

from repro.locking import LockMode
from repro.partitioning import CreateReplica
from repro.txn import ExecutorConfig

from .conftest import build_stack


class TestReadCommitted:
    def test_read_locks_released_before_commit(self):
        """Under read committed, a long-running writer doesn't block a
        reader's whole transaction — readers latch and move on."""
        stack = build_stack(capacity=1.0)
        # Reader touches keys 0 (read) then does work; writer wants X
        # on key 0 concurrently.
        reader = stack.tm.create_normal([stack.read(0), stack.read(3)])
        writer = stack.tm.create_normal([stack.write(0, 9)])
        stack.tm.submit(reader)
        stack.tm.submit(writer)
        stack.env.run(until=100)
        assert reader.committed and writer.committed

    def test_write_locks_still_held_to_commit(self, stack):
        txn = stack.tm.create_normal([stack.write(0)])
        stack.tm.submit(txn)
        # Immediately after dispatch, mid-execution, the X lock is held.
        stack.env.run(until=0.05)
        node = stack.cluster.node_for_partition(0)
        if not txn.committed:
            assert node.locks.holds(txn.txn_id, 0) is LockMode.EXCLUSIVE
        stack.env.run(until=100)
        assert txn.committed
        assert node.locks.holds(txn.txn_id, 0) is None


class TestSerializable:
    def build(self):
        stack = build_stack()
        # Swap in a serializable executor config.
        stack.executor.config = ExecutorConfig(
            lock_timeout_s=5.0, isolation="serializable"
        )
        return stack

    def test_read_locks_held_to_commit(self):
        stack = self.build()
        txn = stack.tm.create_normal([stack.read(0)])
        holds_during = []
        original = stack.executor._apply_commit_effects

        def spy(attempt):
            node = stack.cluster.node_for_partition(0)
            holds_during.append(node.locks.holds(attempt.txn.txn_id, 0))
            original(attempt)

        stack.executor._apply_commit_effects = spy
        stack.run_txn(txn)
        assert txn.committed
        assert holds_during == [LockMode.SHARED]

    def test_invalid_isolation_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(isolation="repeatable_read")


class TestReplicaWrites:
    def test_write_updates_every_replica(self, stack):
        stack.run_txn(
            stack.tm.create_repartition(
                [CreateReplica(op_id=0, key=0, source=0, destination=1)]
            )
        )
        txn = stack.tm.create_normal([stack.write(0, 4242)])
        stack.run_txn(txn)
        assert txn.committed
        for pid in stack.pmap.replicas_of(0):
            node = stack.cluster.node_for_partition(pid)
            assert node.store.read(0) == 4242

    def test_aborted_write_undone_on_every_replica(self):
        stack = build_stack(rep_op_failure_probability=1.0, max_attempts=1)
        # Manually create a replica (bypassing injected failures).
        record = stack.cluster.node_for_partition(0).store.get(0)
        stack.cluster.node_for_partition(1).store.insert(record.copy())
        stack.pmap.add_replica(0, 1)
        original = {
            pid: stack.cluster.node_for_partition(pid).store.read(0)
            for pid in stack.pmap.replicas_of(0)
        }
        from repro.partitioning import Migrate

        txn = stack.tm.create_normal([stack.write(0, 777)])
        txn.attach_rep_ops(
            9, [Migrate(op_id=0, key=5, source=2, destination=0)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=10)
        assert not txn.committed
        for pid, value in original.items():
            node = stack.cluster.node_for_partition(pid)
            assert node.store.read(0) == value


class TestAccounting:
    def test_network_bytes_counted_for_migration(self, stack):
        from repro.partitioning import Migrate

        before = stack.cluster.network.bytes_sent
        txn = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.run_txn(txn)
        record_size = 8  # default tuple size
        assert stack.cluster.network.bytes_sent >= before + record_size

    def test_local_transaction_skips_2pc(self, stack):
        before = stack.executor.twopc.rounds
        txn = stack.tm.create_normal([stack.read(0), stack.read(3)])
        stack.run_txn(txn)
        # Single-participant rounds are counted but cost nothing; the
        # round must not have sent messages.
        assert stack.cluster.network.messages_sent == 0
        assert txn.committed

    def test_distributed_transaction_runs_2pc(self, stack):
        txn = stack.tm.create_normal([stack.write(0), stack.write(1)])
        stack.run_txn(txn)
        assert txn.committed
        assert stack.cluster.network.messages_sent >= 4  # 2 RTTs x 2 nodes

    def test_per_txn_overhead_charged(self):
        stack = build_stack()
        stack.executor.config = ExecutorConfig(per_txn_overhead_units=3.0)
        txn = stack.tm.create_normal([stack.read(0)])
        stack.run_txn(txn)
        assert txn.normal_cost_units == pytest.approx(3.0 + 1.0)
