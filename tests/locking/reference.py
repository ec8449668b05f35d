"""Test-only reference models for ``repro.locking``.

:class:`ReferenceLockManager` + :class:`ReferenceDetector` maintain the
wait-for graph the way the lock manager did before the incremental
graph landed: whenever a queue changes they recompute every waiter's
edge set of that queue from scratch and union it into the detector.  It
is O(queue²) per operation — which is why it no longer ships — and is
kept here as the oracle the shipped, incrementally maintained graph is
compared against.  The detector ignores the shipped manager's own
``add_waits`` reports, so the oracle's graph owes nothing to the code
under test.

One refresh site is new: an S→X upgrade granted *in place* (the upgrader
was the only holder).  The old code left the queue alone there, so an
S request queued behind an X one learned of the holder's new X only at
the queue's next refresh — until then the graph reached the holder
through the X waiter, and lost the dependency if that waiter timed out
first.  The shipped code adds those edges at the upgrade; so does this
reference.

:class:`DeadlockCensus` classifies the cycles the detector reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_manager import (
    LockManager,
    LockMode,
    _compatible,
    _Entry,
)
from repro.sim.events import Event
from repro.types import TupleKey, TxnId


class ReferenceDetector(DeadlockDetector):
    """Takes its edges from the from-scratch refresh only."""

    def add_waits(self, waiter: TxnId, blockers: Iterable[TxnId]) -> None:
        """Ignore the lock manager's incremental reports."""

    def set_waits(self, waiter: TxnId, blockers: Iterable[TxnId]) -> None:
        self.clear_waits(waiter)
        DeadlockDetector.add_waits(self, waiter, blockers)


class ReferenceLockManager(LockManager):
    """A :class:`LockManager` that refreshes wait edges from scratch."""

    def _refresh_wait_edges(self, key: TupleKey, entry: _Entry) -> None:
        """Recompute the wait-for edges contributed by ``key``'s queue."""
        if self.detector is None:
            return
        ahead = list(entry.holders.items())
        for waiter in entry.waiters:
            blockers = {
                txn
                for txn, mode in ahead
                if txn != waiter.txn_id and not _compatible(waiter.mode, mode)
            }
            existing = self.detector.waits_of(waiter.txn_id)
            self.detector.set_waits(waiter.txn_id, blockers | set(existing))
            ahead.append((waiter.txn_id, waiter.mode))

    def acquire(self, txn_id: TxnId, key: TupleKey, mode: LockMode) -> Event:
        in_place = (
            mode is LockMode.EXCLUSIVE
            and self.holders_of(key) == {txn_id: LockMode.SHARED}
        )
        event = super().acquire(txn_id, key, mode)
        if in_place:
            self._refresh_wait_edges(key, self._table[key])
        return event

    def _run_deadlock_check(self, txn_id: TxnId) -> None:
        # ``acquire`` calls this right after it queued ``txn_id``: the
        # point where the old code refreshed the queue it had joined.
        if self.detector is not None:
            _, key, _ = self.detector.wait_site(txn_id)
            self._refresh_wait_edges(key, self._table[key])
        super()._run_deadlock_check(txn_id)

    def _grant_from_queue(self, key: TupleKey, entry: _Entry) -> None:
        super()._grant_from_queue(key, entry)
        if not entry.is_idle():
            self._refresh_wait_edges(key, entry)


class DeadlockCensus:
    """Counts deadlock aborts as *real* or *stale* (phantom) cycles.

    An abort is **real** when every edge ``w → b`` of the reported cycle
    still blocks: at ``w``'s wait site ``b`` holds the key or is queued
    ahead of ``w``.  It is **stale** when at least one edge outlived its
    cause (``b`` released the key, or was granted and moved on, while
    ``w`` kept the edge under the graph's union semantics).  Install it
    with ``monkeypatch.setattr(LockManager, "_evict_waiter",
    census.wrap(LockManager._evict_waiter))``.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def wrap(self, evict: Any) -> Any:
        census = self

        def _evict_waiter(
            manager: LockManager, victim: TxnId, key: Any, event: Any, cycle: Any
        ) -> None:
            # Classify first: the eviction purges the victim's edges.
            label = census.classify(manager.detector, cycle)
            before = manager.deadlock_aborts
            evict(manager, victim, key, event, cycle)
            if manager.deadlock_aborts > before:
                census.counts[label] += 1

        return _evict_waiter

    @staticmethod
    def classify(detector: Any, cycle: tuple[TxnId, ...]) -> str:
        edges = zip(cycle, cycle[1:] + cycle[:1])
        return (
            "real"
            if all(_still_blocks(detector, w, b) for w, b in edges)
            else "stale"
        )


def _still_blocks(detector: Any, waiter: TxnId, blocker: TxnId) -> bool:
    site = detector.wait_site(waiter)
    if site is None:
        return False
    manager, key, event = site
    entry = manager._table.get(key)
    if entry is None:
        return False
    if blocker in entry.holders:
        return True
    for queued in entry.waiters:
        if queued.txn_id == waiter and queued.event is event:
            return False
        if queued.txn_id == blocker:
            return True
    return False
