"""Tests for the transaction manager: dispatch, retry, deadlines, idling."""

import pytest

from repro.partitioning import Migrate
from repro.txn.manager import QUEUE_TIMEOUT_REASON
from repro.types import Priority, TxnStatus

from .conftest import build_stack


class TestIds:
    def test_ids_are_unique_and_increasing(self, stack):
        ids = [stack.tm.next_id() for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_factories_stamp_creation_time(self, stack):
        txn = stack.tm.create_normal([stack.read(0)])
        assert txn.created_at == stack.env.now

    def test_repartition_ops_are_adopted_and_never_mutated_in_place(
        self, stack
    ):
        """``create_repartition`` keeps the caller's list (one per spec of
        a plan); that is sound because piggybacking copies it onto the
        carrier and stripping rebinds the carrier's."""
        ops = [Migrate(op_id=0, key=0, source=0, destination=1)]
        rep = stack.tm.create_repartition(ops)
        assert rep.rep_ops is ops
        carrier = stack.tm.create_normal([stack.read(0)])
        carrier.attach_rep_ops(rep.txn_id, rep.rep_ops)
        assert carrier.rep_ops == ops and carrier.rep_ops is not ops
        assert carrier.strip_rep_ops() == ops
        assert carrier.rep_ops == [] and rep.rep_ops is ops and len(ops) == 1


class TestDispatch:
    def test_higher_priority_runs_first(self):
        stack = build_stack(max_concurrent=1, capacity=10)
        low = stack.tm.create_normal([stack.read(0)])
        high = stack.tm.create_normal([stack.read(1)])
        stack.tm.submit(low, Priority.NORMAL)
        stack.tm.submit(high, Priority.HIGH)
        stack.env.run(until=100)
        assert high.committed and low.committed
        assert high.started_at <= low.started_at

    def test_concurrency_limit_respected(self):
        stack = build_stack(max_concurrent=2, capacity=1.0)
        txns = [stack.tm.create_normal([stack.read(k)]) for k in range(6)]
        for txn in txns:
            stack.tm.submit(txn)
        stack.env.run(until=0.01)
        assert stack.tm.in_flight <= 2
        stack.env.run(until=100)
        assert all(t.committed for t in txns)

    def test_counters(self, stack):
        txn = stack.tm.create_normal([stack.read(0)])
        stack.run_txn(txn)
        assert stack.tm.total_submitted == 1
        assert stack.tm.total_committed == 1
        assert stack.tm.total_aborted == 0


class TestRetry:
    def test_aborted_normal_txn_retries_up_to_max(self):
        stack = build_stack(rep_op_failure_probability=1.0,
                            max_attempts=3)
        txn = stack.tm.create_normal([stack.write(0)])
        txn.attach_rep_ops(
            9, [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=100)
        # Ops are still attached (no scheduler strips them here), so every
        # attempt fails; attempts capped at max_attempts.
        assert txn.attempts == 3
        assert stack.tm.total_aborted == 3

    def test_repartition_txn_retries_until_success(self):
        stack = build_stack()
        # Patch failure probability dynamically: fail twice then succeed.
        calls = []
        original = stack.executor._maybe_inject_failure

        def flaky(txn, op):
            calls.append(1)
            if len(calls) <= 2:
                from repro.errors import TransactionAborted

                raise TransactionAborted(txn.txn_id, "injected flake")

        stack.executor._maybe_inject_failure = flaky
        txn = stack.tm.create_repartition(
            [Migrate(op_id=0, key=0, source=0, destination=1)]
        )
        stack.tm.submit(txn)
        stack.env.run(until=100)
        assert txn.committed
        assert txn.attempts == 3


class TestRetryBackoff:
    def _manager(self, stack, **overrides):
        from repro.txn.manager import (
            TransactionManager,
            TransactionManagerConfig,
        )

        rng = overrides.pop("rng", None)
        return TransactionManager(
            stack.env,
            stack.executor,
            config=TransactionManagerConfig(**overrides),
            rng=rng,
        )

    def test_delay_doubles_per_attempt_up_to_cap(self):
        stack = build_stack()
        tm = self._manager(
            stack, retry_delay_s=1.0, retry_backoff_factor=2.0,
            max_retry_delay_s=5.0,
        )
        txn = tm.create_normal([stack.read(0)])
        delays = []
        for attempts in (1, 2, 3, 4, 5):
            txn.attempts = attempts
            delays.append(tm._retry_delay(txn))
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_first_retry_unchanged_by_backoff_defaults(self):
        """Backoff only kicks in from the second retry, so fault-free
        runs keep their original retry timing."""
        stack = build_stack()
        tm = self._manager(stack, retry_delay_s=0.1)
        txn = tm.create_normal([stack.read(0)])
        txn.attempts = 1
        assert tm._retry_delay(txn) == pytest.approx(0.1)

    def test_jitter_requires_rng(self):
        stack = build_stack()
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            self._manager(stack, retry_jitter=0.5)

    def test_jitter_spreads_but_stays_bounded(self):
        import random

        stack = build_stack()
        tm = self._manager(
            stack, retry_delay_s=1.0, retry_jitter=0.5,
            rng=random.Random(42),
        )
        txn = tm.create_normal([stack.read(0)])
        txn.attempts = 1
        delays = {tm._retry_delay(txn) for _ in range(50)}
        assert len(delays) > 1  # actually spread
        assert all(1.0 <= d <= 1.5 for d in delays)

    def test_invalid_backoff_config_rejected(self):
        from repro.errors import ConfigError
        from repro.txn.manager import TransactionManagerConfig

        with pytest.raises(ConfigError):
            TransactionManagerConfig(retry_backoff_factor=0.5)
        with pytest.raises(ConfigError):
            TransactionManagerConfig(
                retry_delay_s=2.0, max_retry_delay_s=1.0
            )
        with pytest.raises(ConfigError):
            TransactionManagerConfig(retry_jitter=-0.1)


class TestQueueDeadline:
    def test_expired_transaction_aborted_without_execution(self):
        stack = build_stack(queue_timeout_s=5.0, capacity=0.1,
                            max_concurrent=1)
        # The first txn occupies the only slot for 5s+ of service time.
        blocker = stack.tm.create_normal([stack.read(0)])
        victim = stack.tm.create_normal([stack.read(1)])
        stack.tm.submit(blocker)
        stack.tm.submit(victim)
        stack.env.run(until=100)
        assert blocker.committed
        assert victim.status is TxnStatus.ABORTED
        assert victim.abort_reason == QUEUE_TIMEOUT_REASON
        assert victim.abort_cause == "queue_timeout"
        assert victim.started_at is None  # never executed

    def test_expired_transaction_not_retried(self):
        stack = build_stack(queue_timeout_s=5.0, capacity=0.1,
                            max_concurrent=1, max_attempts=5)
        blocker = stack.tm.create_normal([stack.read(0)])
        victim = stack.tm.create_normal([stack.read(1)])
        stack.tm.submit(blocker)
        stack.tm.submit(victim)
        stack.env.run(until=200)
        assert victim.attempts == 1

    def test_repartition_transactions_have_no_deadline(self):
        stack = build_stack(queue_timeout_s=1.0, capacity=0.2,
                            max_concurrent=1)
        blocker = stack.tm.create_normal([stack.read(0)])
        rep = stack.tm.create_repartition(
            [Migrate(op_id=0, key=1, source=1, destination=0)]
        )
        stack.tm.submit(blocker)
        stack.tm.submit(rep, Priority.NORMAL)
        stack.env.run(until=200)
        assert rep.committed

    @pytest.mark.parametrize("period", [0, -1.0])
    def test_non_positive_reaper_period_rejected(self, period):
        """Zero would spin the reaper forever at one instant; a negative
        period used to surface as a bare ValueError at run time."""
        from repro.errors import ConfigError
        from repro.txn.manager import TransactionManagerConfig

        with pytest.raises(ConfigError, match="reaper period"):
            TransactionManagerConfig(queue_timeout_s=5.0, reaper_period_s=period)


class TestLowPriorityIdling:
    def test_low_priority_waits_for_idleness(self):
        """LOW work must not dispatch while the system is busy."""
        stack = build_stack(capacity=1.0, max_concurrent=10)
        # Saturate: ten 1-unit txns, each ~1s of service on node 0.
        normals = [
            stack.tm.create_normal([stack.read(0)]) for _ in range(10)
        ]
        rep = stack.tm.create_repartition(
            [Migrate(op_id=0, key=1, source=1, destination=0)]
        )
        stack.tm.submit(rep, Priority.LOW)
        for txn in normals:
            stack.tm.submit(txn)
        stack.env.run(until=300)
        assert rep.committed
        # The repartition transaction must have started only after the
        # normal work drained (in_flight fell to the idle threshold).
        last_normal_start = max(t.started_at for t in normals)
        assert rep.started_at >= last_normal_start
