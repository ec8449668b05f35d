"""Tests for node crash/restart with WAL-based recovery."""

import random

import pytest

from repro.cluster import DataNode
from repro.errors import NodeDownError
from repro.locking import LockMode
from repro.storage import Record


@pytest.fixture
def node(env):
    node = DataNode(env, node_id=0, partition_id=0,
                    capacity_units_per_s=10.0)
    node.enable_wal()
    return node


def committed_insert(node, txn_id, key, value):
    node.wal.log_begin(txn_id)
    record = Record(key=key, value=value)
    node.store.insert(record)
    node.wal.log_insert(txn_id, record)
    node.wal.log_commit(txn_id)


class TestCrash:
    def test_crash_wipes_volatile_state(self, node):
        committed_insert(node, 1, 5, 50)
        node.locks.acquire(9, 5, LockMode.EXCLUSIVE)
        node.crash()
        assert node.is_down
        assert len(node.store) == 0
        assert node.locks.holders_of(5) == {}

    def test_restart_recovers_committed_data(self, node):
        committed_insert(node, 1, 5, 50)
        committed_insert(node, 2, 6, 60)
        node.crash()
        store = node.restart()
        assert not node.is_down
        assert store.read(5) == 50
        assert store.read(6) == 60

    def test_uncommitted_work_lost_on_crash(self, node):
        committed_insert(node, 1, 5, 50)
        node.wal.log_begin(2)
        node.store.insert(Record(key=7, value=70))
        node.wal.log_insert(2, Record(key=7, value=70))
        # crash before COMMIT
        node.crash()
        node.restart()
        assert 5 in node.store
        assert 7 not in node.store

    def test_crash_recovers_checkpoint_plus_committed_tail(self, node):
        committed_insert(node, 1, 5, 50)
        node.wal.log_checkpoint(node.store)
        committed_insert(node, 2, 6, 60)
        node.wal.log_begin(3)
        node.store.insert(Record(key=7, value=70))
        node.wal.log_insert(3, Record(key=7, value=70))
        node.crash()  # before txn 3 commits
        assert len(node.store) == 0
        store = node.restart()
        assert sorted(store.rows()) == [(5, 50, 0, 8), (6, 60, 0, 8)]

    def test_double_crash_rejected(self, node):
        node.crash()
        with pytest.raises(RuntimeError):
            node.crash()

    def test_restart_without_crash_rejected(self, node):
        with pytest.raises(RuntimeError):
            node.restart()

    def test_crash_count_tracked(self, node):
        node.crash()
        node.restart()
        node.crash()
        node.restart()
        assert node.crash_count == 2

    def test_crash_without_wal_loses_everything(self, env):
        node = DataNode(env, 0, 0, 10.0)  # no WAL
        node.store.insert(Record(key=1, value=10))
        node.crash()
        node.restart()
        assert len(node.store) == 0

    def test_repeated_crash_recover_cycles_idempotent(self, node):
        committed_insert(node, 1, 5, 50)
        for _ in range(3):
            node.crash()
            node.restart()
        assert node.store.read(5) == 50

    def test_new_traffic_after_restart_journals(self, node):
        committed_insert(node, 1, 5, 50)
        node.crash()
        node.restart()
        committed_insert(node, 2, 6, 60)
        node.crash()
        node.restart()
        assert node.store.read(5) == 50
        assert node.store.read(6) == 60


class TestCrashUnderLoad:
    """Crashes with transactions in flight (the fault-injection path)."""

    def test_pending_lock_wait_fails_with_node_down(self, env, node):
        node.locks.acquire(1, 5, LockMode.EXCLUSIVE)
        outcomes = []

        def waiter():
            try:
                yield node.locks.acquire(2, 5, LockMode.EXCLUSIVE)
                outcomes.append("granted")
            except NodeDownError as exc:
                outcomes.append(exc)

        env.process(waiter())
        env.run(until=1.0)
        node.crash()
        env.run(until=2.0)
        (outcome,) = outcomes
        assert isinstance(outcome, NodeDownError)
        assert outcome.node_id == node.node_id

    def test_in_service_job_killed_when_interruptible(self, env, node):
        node.enable_fault_injection()
        outcomes = []

        def job():
            try:
                yield from node.work(100.0)  # 10 s at 10 units/s
                outcomes.append("done")
            except NodeDownError as exc:
                outcomes.append(exc)

        env.process(job())
        env.run(until=1.0)
        node.crash()
        env.run(until=20.0)
        (outcome,) = outcomes
        assert isinstance(outcome, NodeDownError)
        assert env.now < 20.0 or outcomes != ["done"]

    def test_queued_job_killed_even_without_interruptibility(self, env, node):
        outcomes = []

        def job(units):
            try:
                yield from node.work(units)
                outcomes.append("done")
            except NodeDownError as exc:
                outcomes.append("down")

        env.process(job(50.0))   # occupies the single serving slot
        env.process(job(50.0))   # queued behind it
        env.run(until=1.0)
        node.crash()
        env.run(until=0.0 + 30.0)
        assert "down" in outcomes  # the queued job died with the node

    def test_work_on_down_node_rejected(self, env, node):
        node.crash()
        with pytest.raises(NodeDownError):
            next(node.work(1.0))

    def test_down_time_accounted(self, env, node):
        def script():
            yield env.timeout(5.0)
            node.crash()
            yield env.timeout(7.0)
            node.restart()

        env.process(script())
        env.run(until=20.0)
        assert node.total_down_time_s == pytest.approx(7.0)


class TestCapacityNoiseAcrossCrash:
    def test_noise_paused_while_down_and_resumed_after(self, env, node):
        node.start_capacity_noise(
            random.Random(0), interval_s=1.0, relative_sigma=0.5
        )
        env.run(until=3.5)
        assert node.server.rate != node.base_rate  # noise is live

        node.crash()
        rate_at_crash = node.server.rate
        env.run(until=10.0)
        # A dead node's rate must not keep fluctuating.
        assert node.server.rate == rate_at_crash

        node.restart()
        assert node.server.rate == node.base_rate  # restored on rejoin
        env.run(until=15.0)
        assert node.server.rate != node.base_rate  # noise ticking again

    def test_stop_capacity_noise_restores_base_rate(self, env, node):
        node.start_capacity_noise(
            random.Random(0), interval_s=1.0, relative_sigma=0.5
        )
        env.run(until=3.5)
        node.stop_capacity_noise()
        env.run(until=10.0)
        assert node.server.rate == node.base_rate

    def test_stopped_noise_does_not_resume_after_restart(self, env, node):
        node.start_capacity_noise(
            random.Random(0), interval_s=1.0, relative_sigma=0.5
        )
        node.stop_capacity_noise()
        node.crash()
        node.restart()
        env.run(until=10.0)
        assert node.server.rate == node.base_rate

    def test_double_start_rejected(self, env, node):
        node.start_capacity_noise(
            random.Random(0), interval_s=1.0, relative_sigma=0.5
        )
        with pytest.raises(RuntimeError):
            node.start_capacity_noise(
                random.Random(0), interval_s=1.0, relative_sigma=0.5
            )
