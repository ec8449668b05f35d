"""The processing queue: priority scheduling with FIFO tie-breaking.

Paper §2.1: "All the submitted transactions will be associated with a
scheduling priority and then put into a processing queue, where higher-
priority transactions will be executed first, while the FIFO policy will
be applied to break the tie."

The queue additionally supports *removal* and *re-prioritisation* of
waiting transactions, which the Feedback scheduler uses to promote
repartition transactions and the Piggyback scheduler uses to claim a
queued repartition transaction for injection into a carrier.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Optional

from ..sim.events import Event
from ..types import Priority, TxnId
from .transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class ProcessingQueue:
    """Priority + FIFO queue of transactions awaiting dispatch."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._heap: list[tuple[int, int, TxnId]] = []
        self._entries: dict[TxnId, Transaction] = {}
        #: Sequence number of each transaction's *live* heap entry.  A
        #: heap entry whose sequence no longer matches is stale (the txn
        #: was removed, or removed and re-inserted — e.g. demoted by
        #: ``reprioritise``) and must be skipped; matching on txn id
        #: alone would dequeue a demoted transaction at its old
        #: priority through the abandoned entry.
        self._live_seq: dict[TxnId, int] = {}
        self._seq = count()
        self._waiters: list[Event] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, txn_id: TxnId) -> bool:
        return txn_id in self._entries

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def put(self, txn: Transaction, priority: Optional[Priority] = None) -> None:
        """Enqueue ``txn`` (at its own priority unless overridden)."""
        if txn.txn_id in self._entries:
            raise ValueError(f"transaction {txn.txn_id} is already queued")
        if priority is not None:
            txn.priority = priority
        seq = next(self._seq)
        heapq.heappush(self._heap, (int(txn.priority), seq, txn.txn_id))
        self._entries[txn.txn_id] = txn
        self._live_seq[txn.txn_id] = seq
        self._wake_waiters()

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Transaction]:
        """Dequeue the highest-priority (then oldest) transaction."""
        while self._heap:
            _prio, seq, txn_id = heapq.heappop(self._heap)
            if self._live_seq.get(txn_id) != seq:
                continue  # stale entry (removed or re-prioritised)
            del self._live_seq[txn_id]
            return self._entries.pop(txn_id)
        return None

    def peek(self) -> Optional[Transaction]:
        """The transaction :meth:`pop` would return, without removing it."""
        while self._heap:
            _prio, seq, txn_id = self._heap[0]
            if self._live_seq.get(txn_id) == seq:
                return self._entries[txn_id]
            heapq.heappop(self._heap)  # discard stale entry
        return None

    def wait_nonempty(self) -> Event:
        """Event that succeeds once the queue holds at least one item."""
        event = Event(self.env)
        if self._entries:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # Surgical operations (Feedback promotion, Piggyback claiming)
    # ------------------------------------------------------------------
    def remove(self, txn_id: TxnId) -> Optional[Transaction]:
        """Withdraw a waiting transaction; ``None`` if it is not queued.

        The heap entry is left behind and skipped lazily by :meth:`pop`
        (its recorded sequence number no longer matches).
        """
        txn = self._entries.pop(txn_id, None)
        if txn is not None:
            self._live_seq.pop(txn_id, None)
        return txn

    def reprioritise(self, txn_id: TxnId, priority: Priority) -> bool:
        """Move a waiting transaction to a different priority level."""
        txn = self.remove(txn_id)
        if txn is None:
            return False
        self.put(txn, priority)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def waiting(self) -> list[Transaction]:
        """Snapshot of every waiting transaction in **queue order**: put
        order (ascending :meth:`position`), a re-put or :meth:`reprioritise`
        moving it to the back.  The reaper's abort order, so model behaviour."""
        return list(self._entries.values())

    def position(self, txn_id: TxnId) -> Optional[int]:
        """Where ``txn_id`` stands in queue order (``None``: not queued):
        its live sequence number, larger for whoever was put later."""
        return self._live_seq.get(txn_id)

    def counts_by_priority(self) -> dict[Priority, int]:
        """How many waiting transactions sit at each priority level."""
        counts = {priority: 0 for priority in Priority}
        for txn in self._entries.values():
            counts[txn.priority] += 1
        return counts

    def waiting_normal_work(self) -> int:
        """Number of queued *normal* transactions (queue-pressure signal)."""
        return sum(1 for t in self._entries.values() if t.is_normal)

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()
