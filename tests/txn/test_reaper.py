"""The queue reaper's contract: who is aborted, in which order, how often.

The reaper's abort order reaches ``SchedulerHook.on_finished`` and from
there every Hybrid/Piggyback series, so it is pinned here against the
simplest possible statement of it — a walk over the whole waiting queue
in queue order — kept in this file as the reference.
"""

from repro.partitioning import Migrate
from repro.txn.manager import QUEUE_TIMEOUT_CAUSE

from .conftest import build_stack


class _Finishes:
    """Scheduler hook recording every ``on_finished`` call in order."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def on_submit(self, txn):
        pass

    def on_finished(self, txn, success):
        self.calls.append((self.env.now, txn.txn_id, success, txn.abort_cause))

    def reaped(self):
        return [
            (when, txn_id)
            for when, txn_id, _ok, cause in self.calls
            if cause == QUEUE_TIMEOUT_CAUSE
        ]


def _failing_carrier(stack, key):
    """A normal transaction whose piggybacked op fails (injected), so it
    aborts with a retryable cause after doing its query's work."""
    txn = stack.tm.create_normal([stack.write(key)])
    txn.attach_rep_ops(
        10_000 + key,
        [Migrate(op_id=key, key=key, source=key % 3, destination=(key + 1) % 3)],
    )
    return txn


def _submit_every(stack, gap_s, txns):
    def arrivals():
        for txn in txns:
            yield stack.env.timeout(gap_s)
            stack.tm.submit(txn)

    stack.env.process(arrivals())


def _shadow_reaper(stack, timeout_s, scans):
    """The reference: at every scan instant, just *ahead* of the real
    reaper, walk ``queue.waiting()`` and note who is overdue."""
    env, tm = stack.env, stack.tm

    def walk(_event):
        overdue = [
            txn.txn_id
            for txn in tm.queue.waiting()
            if txn.is_normal and env.now - txn.first_submitted_at > timeout_s
        ]
        if overdue:
            scans.append((env.now, overdue))

    def arm():
        # Each walk is scheduled half a period before the reaper
        # schedules its own timeout for the same instant, so it carries
        # the smaller sequence number and pops first.
        yield env.timeout(0.5)
        while True:
            env.timeout(1.5).callbacks.append(walk)
            yield env.timeout(1.0)

    env.process(arm())


def _overloaded_stack():
    """Arrivals at ~2.5x capacity, every fourth one a failing carrier
    that retries twice: first submissions and retries share the queue."""
    stack = build_stack(
        queue_timeout_s=4.0,
        capacity=1.0,
        max_concurrent=3,
        max_attempts=3,
        rep_op_failure_probability=1.0,
    )
    txns = [
        _failing_carrier(stack, k % 30)
        if k % 4 == 0
        else stack.tm.create_normal([stack.read(k % 30)])
        for k in range(80)
    ]
    _submit_every(stack, 0.13, txns)
    return stack, txns


class TestAbortOrder:
    def test_one_scan_aborts_in_queue_order_not_deadline_order(self):
        stack = build_stack(
            queue_timeout_s=12.0,
            capacity=0.1,
            max_concurrent=1,
            max_attempts=3,
            rep_op_failure_probability=1.0,
        )
        finishes = _Finishes(stack.env)
        stack.tm.scheduler = finishes
        # The carrier holds the only slot for ~11 s, fails, and re-queues
        # *behind* the reads that arrived meanwhile; the first of those
        # takes the freed slot.  At t=13 the carrier's retry and the three
        # reads still queued are all overdue: the carrier has the earliest
        # deadline and the last place in the queue.
        carrier = _failing_carrier(stack, 0)
        stack.tm.submit(carrier)
        reads = [stack.tm.create_normal([stack.read(k)]) for k in range(1, 5)]
        _submit_every(stack, 0.1, reads)
        stack.env.run(until=40)
        assert finishes.reaped() == [
            (13.0, reads[1].txn_id),
            (13.0, reads[2].txn_id),
            (13.0, reads[3].txn_id),
            (13.0, carrier.txn_id),
        ]
        assert carrier.attempts == 2  # reaped as a retry, not retried again
        # Overdue while it ran, but it committed: never the reaper's.
        assert reads[0].committed and reads[0].latency > 12.0

    def test_every_scan_matches_reference_walk_over_waiting(self):
        stack, txns = _overloaded_stack()
        finishes = _Finishes(stack.env)
        stack.tm.scheduler = finishes
        scans = []
        _shadow_reaper(stack, 4.0, scans)
        stack.env.run(until=60)

        expected = [(when, txn_id) for when, ids in scans for txn_id in ids]
        at_a_scan = [
            (when, txn_id)
            for when, txn_id in finishes.reaped()
            if when == int(when)
        ]
        assert at_a_scan == expected
        # The scenario is worth its name: some scan reaps several, with a
        # retry among first submissions, in an order that is *not* the
        # deadline (= first-submission = id) order.
        assert any(len(ids) > 3 for _when, ids in scans)
        assert any(ids != sorted(ids) for _when, ids in scans)
        reaped_ids = [txn_id for _when, txn_id in finishes.reaped()]
        assert len(reaped_ids) == len(set(reaped_ids))
        assert all(
            txn.committed or txn.abort_cause is not None for txn in txns
        )


class TestOverdueWhileRunning:
    def _run(self, max_concurrent):
        stack = build_stack(
            queue_timeout_s=5.0,
            capacity=0.1,
            max_concurrent=max_concurrent,
            max_attempts=3,
            rep_op_failure_probability=1.0,
        )
        finishes = _Finishes(stack.env)
        stack.tm.scheduler = finishes
        carrier = _failing_carrier(stack, 0)
        stack.tm.submit(carrier)
        blocker = stack.tm.create_normal([stack.read(1)])
        _submit_every(stack, 8.0, [blocker])  # not yet overdue at ~11 s
        stack.env.run(until=60)
        assert carrier.started_at == 0.0 and carrier.attempts == 2
        return carrier, blocker, finishes

    def test_reaped_on_first_scan_after_its_retry_requeues(self):
        # One slot: the blocker takes it when the carrier fails, so the
        # retry waits in the queue, already overdue, until the next scan.
        carrier, blocker, finishes = self._run(max_concurrent=1)
        aborted_at, _id, _ok, cause = next(
            call for call in finishes.calls if call[1] == carrier.txn_id
        )
        assert cause == "injected" and aborted_at > 5.0
        requeued_at = carrier.submitted_at
        assert requeued_at > aborted_at
        assert finishes.reaped() == [
            (float(int(requeued_at) + 1), carrier.txn_id)
        ]
        assert blocker.committed

    def test_or_by_the_dispatch_check_when_a_slot_is_free(self):
        # Two slots: the retry is dispatched the instant it re-queues and
        # ``_run``'s own check turns it away, between two scans.
        carrier, blocker, finishes = self._run(max_concurrent=2)
        assert finishes.reaped() == [(carrier.submitted_at, carrier.txn_id)]
        assert carrier.submitted_at != int(carrier.submitted_at)
        assert blocker.committed


class TestOpenTransactions:
    """The reaper's own structure holds the unfinished, nothing else."""

    def test_holds_exactly_queued_running_and_backing_off(self):
        stack, txns = _overloaded_stack()
        tm = stack.tm
        sizes = []

        def unfinished(txn):
            if txn.first_submitted_at is None or txn.committed:
                return False
            if txn.abort_cause is None:
                return True  # queued or running
            return (
                txn.abort_cause != QUEUE_TIMEOUT_CAUSE
                and txn.attempts < tm.config.max_attempts
            )  # backing off before its retry

        def probe():
            while True:
                yield stack.env.timeout(0.77)
                expected = {t.txn_id for t in txns if unfinished(t)}
                assert set(tm._open) == expected
                backing_off = sum(
                    1 for t in txns if unfinished(t) and t.abort_cause
                )
                assert len(tm._open) == (
                    tm.queue.waiting_normal_work() + tm.in_flight + backing_off
                )
                sizes.append(len(tm._open))

        stack.env.process(probe())
        stack.env.run(until=60)
        assert max(sizes) > 20 and sizes[-1] == 0
        assert not tm._open

    def test_insertion_order_is_deadline_order(self):
        stack, _txns = _overloaded_stack()
        stack.env.run(until=6.3)
        firsts = [t.first_submitted_at for t in stack.tm._open.values()]
        assert len(firsts) > 10 and firsts == sorted(firsts)

    def test_no_deadline_no_bookkeeping(self):
        stack = build_stack(queue_timeout_s=None, capacity=1.0, max_concurrent=1)
        txns = [stack.tm.create_normal([stack.read(k)]) for k in range(6)]
        _submit_every(stack, 0.1, txns)
        stack.env.run(until=3.0)
        assert len(stack.tm.queue) > 0
        assert not stack.tm._open
        stack.env.run(until=60)
        assert all(t.committed for t in txns) and not stack.tm._open
