"""Two-phase-locking lock manager with shared/exclusive tuple locks.

Each data node owns one lock manager guarding the tuples resident on it.
Requests are granted strictly FIFO (a new shared request waits behind an
already-waiting exclusive request, preventing writer starvation), with
the single classic exception that a lock *upgrade* (S→X by a transaction
already holding S) jumps to the front of the queue.

Deadlocks are resolved two ways, matching the paper's substrate:

* a global wait-for-graph :class:`~repro.locking.deadlock.DeadlockDetector`
  (shared across all nodes' lock managers) aborts a victim as soon as a
  cycle forms, even when the cycle spans nodes.  Its edges are maintained
  incrementally: a request gains them when it joins a queue (and when an
  upgrade gets ahead of it) and loses them when it stops waiting; and
* the transaction executor may additionally impose a lock-wait timeout
  (PostgreSQL-style), which shows up as aborted transactions in the
  failure-rate metric.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import DeadlockAbort
from ..sim.events import Event
from ..types import AccessMode, TupleKey, TxnId
from .deadlock import DeadlockDetector

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) tuple lock."""

    SHARED = "S"
    EXCLUSIVE = "X"

    @classmethod
    def for_access(cls, mode: AccessMode) -> "LockMode":
        """Map a query access mode to the lock mode 2PL requires."""
        return cls.SHARED if mode is AccessMode.READ else cls.EXCLUSIVE


def _compatible(requested: LockMode, held: LockMode) -> bool:
    return requested is LockMode.SHARED and held is LockMode.SHARED


@dataclass(slots=True)
class _Waiter:
    txn_id: TxnId
    mode: LockMode
    event: Event
    is_upgrade: bool = False


@dataclass(slots=True)
class _Entry:
    holders: dict[TxnId, LockMode] = field(default_factory=dict)
    waiters: deque[_Waiter] = field(default_factory=deque)

    def is_idle(self) -> bool:
        return not self.holders and not self.waiters


class LockManager:
    """Grants and tracks tuple locks for one node's partition."""

    def __init__(
        self,
        env: "Environment",
        detector: Optional[DeadlockDetector] = None,
        name: str = "locks",
    ) -> None:
        self.env = env
        self.detector = detector
        self.name = name
        self._table: dict[TupleKey, _Entry] = {}
        self._held_by_txn: dict[TxnId, set[TupleKey]] = {}
        #: txn -> key -> number of pending requests (a transaction may
        #: legally queue several requests for the same key, e.g. an S
        #: request issued while an X request is still waiting).
        self._waiting_by_txn: dict[TxnId, dict[TupleKey, int]] = {}
        #: The one shared, already-processed event of every immediate grant.
        self.granted = Event(env).succeed()
        self.grants = 0
        self.waits = 0
        self.deadlock_aborts = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holds(self, txn_id: TxnId, key: TupleKey) -> Optional[LockMode]:
        """Mode ``txn_id`` currently holds on ``key``, or ``None``."""
        entry = self._table.get(key)
        if entry is None:
            return None
        return entry.holders.get(txn_id)

    def holders_of(self, key: TupleKey) -> dict[TxnId, LockMode]:
        """Snapshot of current holders of ``key``."""
        entry = self._table.get(key)
        return dict(entry.holders) if entry else {}

    def queue_length(self, key: TupleKey) -> int:
        """Number of transactions waiting on ``key``."""
        entry = self._table.get(key)
        return len(entry.waiters) if entry else 0

    def locked_keys(self, txn_id: TxnId) -> frozenset[TupleKey]:
        """Keys on which ``txn_id`` holds a lock here."""
        return frozenset(self._held_by_txn.get(txn_id, ()))

    def is_waiting(self, txn_id: TxnId) -> bool:
        """Whether ``txn_id`` has any pending request at this manager."""
        return txn_id in self._waiting_by_txn

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, txn_id: TxnId, key: TupleKey, mode: LockMode) -> Event:
        """Request ``mode`` on ``key`` for ``txn_id``.

        Returns an event that succeeds when the lock is granted.  An
        immediate grant (uncontended, re-request under a held lock, lone
        upgrade) returns :attr:`granted`, shared by all of them: test
        ``is manager.granted`` or ``.triggered``, its ``value`` is
        unspecified.  Only a request that waits gets an event of its own.
        If the new wait closes a wait-for cycle, the chosen victim's
        pending event fails with :class:`DeadlockAbort` — possibly the
        event returned here.
        """
        entry = self._table.get(key)
        if entry is None:
            entry = self._table[key] = _Entry()
        held = entry.holders.get(txn_id)

        if held is not None:
            if held is LockMode.EXCLUSIVE or held is mode:
                return self.granted
            # Upgrade S -> X: jumps the queue, waits only on co-holders.
            others = [t for t in entry.holders if t != txn_id]
            if self.detector is not None:
                # The one way to get ahead of a queued request: granted
                # in place or queued at the head, the upgrader's X now
                # blocks every waiter, also the S ones its S did not.
                for queued in entry.waiters:
                    self.detector.add_waits(queued.txn_id, (txn_id,))
                self.detector.add_waits(txn_id, others)
            if not others:
                entry.holders[txn_id] = LockMode.EXCLUSIVE
                self.grants += 1
                return self.granted
            event = Event(self.env)
            waiter = _Waiter(txn_id, LockMode.EXCLUSIVE, event, is_upgrade=True)
            entry.waiters.appendleft(waiter)
            self.waits += 1
            self._begin_wait(txn_id, key, event)
            self._run_deadlock_check(txn_id)
            return event

        holders = entry.holders
        if not entry.waiters and (
            not holders
            or all(_compatible(mode, held_mode) for held_mode in holders.values())
        ):
            holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(key)
            self.grants += 1
            return self.granted

        if self.detector is not None:
            # Strict FIFO: whoever is ahead now is all that can ever be
            # ahead (bar an upgrade jump), so the edges are final here
            # and grant, release and cancel never touch them.
            ahead = chain(
                entry.holders.items(),
                ((queued.txn_id, queued.mode) for queued in entry.waiters),
            )
            self.detector.add_waits(
                txn_id,
                [txn for txn, other in ahead if not _compatible(mode, other)],
            )
        event = Event(self.env)
        entry.waiters.append(_Waiter(txn_id, mode, event))
        self.waits += 1
        self._begin_wait(txn_id, key, event)
        self._run_deadlock_check(txn_id)
        return event

    def cancel(self, txn_id: TxnId, key: TupleKey) -> None:
        """Withdraw every waiting request of ``txn_id`` on ``key``."""
        entry = self._table.get(key)
        if entry is None:
            return
        before = len(entry.waiters)
        entry.waiters = deque(w for w in entry.waiters if w.txn_id != txn_id)
        removed = before - len(entry.waiters)
        if removed:
            for _ in range(removed):
                self._end_wait(txn_id, key)
            self._grant_from_queue(key, entry)

    def release(self, txn_id: TxnId, key: TupleKey) -> None:
        """Release one lock held by ``txn_id``."""
        entry = self._table.get(key)
        if entry is None or txn_id not in entry.holders:
            return
        del entry.holders[txn_id]
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.discard(key)
            if not held:
                del self._held_by_txn[txn_id]
        self._grant_from_queue(key, entry)

    def release_all(self, txn_id: TxnId) -> None:
        """Release every lock and withdraw every wait of ``txn_id``."""
        for key in list(self._waiting_by_txn.get(txn_id, ())):
            self.cancel(txn_id, key)
        for key in list(self._held_by_txn.get(txn_id, ())):
            self.release(txn_id, key)
        if self.detector is not None:
            self.detector.remove_transaction(txn_id)

    def fail_all_waiters(
        self, make_exc: Callable[[TxnId, TupleKey], BaseException]
    ) -> int:
        """Fail every pending lock request (the node crashed).

        Each waiter's event fails with ``make_exc(txn_id, key)``, which
        the waiting transaction's process receives at its yield point.
        Holders are left alone — crash handling wipes the whole lock
        table afterwards, and the holders' processes are aborted through
        the work-server and 2PC channels.  Returns the number of waits
        failed.
        """
        failed = 0
        for key in list(self._table):
            entry = self._table.get(key)
            if entry is None:
                continue
            waiters, entry.waiters = list(entry.waiters), deque()
            for waiter in waiters:
                self._end_wait(waiter.txn_id, key)
                if not waiter.event.triggered:
                    waiter.event.fail(make_exc(waiter.txn_id, key))
                failed += 1
            if entry.is_idle():
                self._table.pop(key, None)
        return failed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _begin_wait(self, txn_id: TxnId, key: TupleKey, event: Event) -> None:
        counts = self._waiting_by_txn.setdefault(txn_id, {})
        counts[key] = counts.get(key, 0) + 1
        if self.detector is not None:
            self.detector.register_wait_site(txn_id, self, key, event)

    def _end_wait(self, txn_id: TxnId, key: TupleKey) -> None:
        counts = self._waiting_by_txn.get(txn_id)
        if counts is not None and key in counts:
            counts[key] -= 1
            if counts[key] <= 0:
                del counts[key]
            if not counts:
                del self._waiting_by_txn[txn_id]
        if self.detector is not None and txn_id not in self._waiting_by_txn:
            self.detector.clear_waits(txn_id)
            self.detector.unregister_wait_site(txn_id)

    def _grant_from_queue(self, key: TupleKey, entry: _Entry) -> None:
        """Grant as many queued requests as FIFO order allows."""
        while entry.waiters:
            head = entry.waiters[0]
            if head.is_upgrade:
                others = [t for t in entry.holders if t != head.txn_id]
                if others:
                    break
                entry.waiters.popleft()
                entry.holders[head.txn_id] = LockMode.EXCLUSIVE
                self._held_by_txn.setdefault(head.txn_id, set()).add(key)
                self._finish_grant(head, key)
                break
            compatible = all(
                _compatible(head.mode, held) for held in entry.holders.values()
            )
            if not compatible:
                break
            entry.waiters.popleft()
            entry.holders[head.txn_id] = head.mode
            self._held_by_txn.setdefault(head.txn_id, set()).add(key)
            self._finish_grant(head, key)
            if head.mode is LockMode.EXCLUSIVE:
                break
        if entry.is_idle():
            self._table.pop(key, None)

    def _finish_grant(self, waiter: _Waiter, key: TupleKey) -> None:
        self.grants += 1
        self._end_wait(waiter.txn_id, key)
        if not waiter.event.triggered:
            waiter.event.succeed(key)

    def _run_deadlock_check(self, txn_id: TxnId) -> None:
        if self.detector is None:
            return
        victim = self.detector.check(txn_id)
        if victim is None:
            return
        cycle = self.detector.find_cycle(victim) or (victim,)
        site = self.detector.wait_site(victim)
        if site is None:
            # Victim is not blocked anywhere we can see (e.g. it holds
            # locks but runs); fall back to letting timeouts resolve it.
            return
        manager, victim_key, victim_event = site
        assert isinstance(manager, LockManager)
        manager._evict_waiter(victim, victim_key, victim_event, tuple(cycle))

    def _evict_waiter(
        self,
        victim: TxnId,
        key: TupleKey,
        event: Event,
        cycle: tuple[TxnId, ...],
    ) -> None:
        """Abort ``victim``'s pending request on ``key`` at this manager."""
        entry = self._table.get(key)
        if entry is None:
            return
        target = next(
            (w for w in entry.waiters if w.txn_id == victim and w.event is event),
            None,
        )
        if target is None:
            return
        entry.waiters.remove(target)
        self.deadlock_aborts += 1
        self._end_wait(victim, key)
        if self.detector is not None:
            self.detector.remove_transaction(victim)
        if not target.event.triggered:
            target.event.fail(DeadlockAbort(victim, cycle))
        self._grant_from_queue(key, entry)
