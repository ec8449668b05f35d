"""Global wait-for-graph deadlock detection.

All lock managers in the cluster report who-waits-for-whom edges to a
single :class:`DeadlockDetector` (the simulation runs in one process, so a
global view is free — on the paper's real cluster this role is played by
distributed deadlock detection or, as in PostgreSQL, per-node detection
plus lock timeouts, which we also support).

When a cycle appears the detector picks a victim and reports it; the lock
manager then fails that transaction's pending lock request with
:class:`~repro.errors.DeadlockAbort`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..types import TxnId

_NO_EDGES: frozenset[TxnId] = frozenset()

#: Chooses the victim among the transactions in a cycle.
VictimPolicy = Callable[[tuple[TxnId, ...]], TxnId]


def youngest_victim(cycle: tuple[TxnId, ...]) -> TxnId:
    """Default policy: abort the youngest (highest-id) transaction.

    Younger transactions have done the least work, so aborting them wastes
    the least — the classic textbook choice.
    """
    return max(cycle)


class DeadlockDetector:
    """Maintains the wait-for graph and finds cycles incrementally.

    Besides the graph itself, the detector keeps a registry of *where*
    each transaction is waiting (which lock manager, key, and pending
    event), so that a victim whose blocking wait lives on a different
    node than the one that closed the cycle can still be aborted.
    """

    def __init__(self, victim_policy: VictimPolicy = youngest_victim) -> None:
        self._waits_for: dict[TxnId, set[TxnId]] = {}
        #: Reverse index (blocker -> its waiters), the exact transpose of
        #: ``_waits_for``: finishing a transaction costs O(its degree).
        self._blocks: dict[TxnId, set[TxnId]] = {}
        self._victim_policy = victim_policy
        #: txn -> (lock manager, key, pending event) of its active wait.
        self._wait_sites: dict[TxnId, tuple[object, TxnId, object]] = {}
        self.cycles_found = 0
        self.victims_aborted = 0

    # ------------------------------------------------------------------
    # Wait-site registry (used to abort victims on any node)
    # ------------------------------------------------------------------
    def register_wait_site(
        self, txn_id: TxnId, manager: object, key: object, event: object
    ) -> None:
        """Record that ``txn_id`` is blocked on ``key`` at ``manager``."""
        self._wait_sites[txn_id] = (manager, key, event)  # type: ignore[assignment]

    def unregister_wait_site(self, txn_id: TxnId) -> None:
        """Forget the wait site of ``txn_id`` (granted, cancelled, aborted)."""
        self._wait_sites.pop(txn_id, None)

    def wait_site(
        self, txn_id: TxnId
    ) -> Optional[tuple[object, object, object]]:
        """The (manager, key, event) where ``txn_id`` currently waits."""
        return self._wait_sites.get(txn_id)

    def add_waits(self, waiter: TxnId, blockers: Iterable[TxnId]) -> None:
        """Add edges ``waiter`` → each of ``blockers``, keeping the rest."""
        new = set(blockers)
        new.discard(waiter)
        new.difference_update(self._waits_for.get(waiter, ()))
        if not new:
            return
        self._waits_for.setdefault(waiter, set()).update(new)
        for blocker in new:
            self._blocks.setdefault(blocker, set()).add(waiter)

    def set_waits(self, waiter: TxnId, blockers: Iterable[TxnId]) -> None:
        """Replace the outgoing edges of ``waiter``."""
        self.clear_waits(waiter)
        self.add_waits(waiter, blockers)

    def clear_waits(self, waiter: TxnId) -> None:
        """Remove all outgoing edges of ``waiter`` (it stopped waiting)."""
        for blocker in self._waits_for.pop(waiter, ()):
            self._drop(self._blocks, blocker, waiter)

    def remove_transaction(self, txn_id: TxnId) -> None:
        """Purge a finished transaction from the graph entirely."""
        self.clear_waits(txn_id)
        self._wait_sites.pop(txn_id, None)
        for waiter in self._blocks.pop(txn_id, ()):
            self._drop(self._waits_for, waiter, txn_id)

    @staticmethod
    def _drop(index: dict[TxnId, set[TxnId]], node: TxnId, peer: TxnId) -> None:
        """Remove ``peer`` from ``index[node]``; empty sets are not kept."""
        peers = index[node]
        peers.discard(peer)
        if not peers:
            del index[node]

    def waits_of(self, waiter: TxnId) -> frozenset[TxnId]:
        """Current blockers of ``waiter`` (empty if not waiting)."""
        return frozenset(self._waits_for.get(waiter, ()))

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------
    def find_cycle(self, start: TxnId) -> Optional[tuple[TxnId, ...]]:
        """Find a cycle reachable from ``start``, if any.

        Iterative DFS over the wait-for graph (a wait chain may be longer
        than the interpreter's recursion limit); returns the cycle as a
        tuple of transaction ids, or ``None``.  Successors are visited in
        ascending transaction-id order, so the cycle — and the victim
        chosen from it — is a pure function of (graph, ``start``), never
        of the hash-table layout of the edge sets.
        """
        graph = self._waits_for
        path = [start]
        on_path = {start}
        visited: set[TxnId] = set()
        stack = [iter(sorted(graph.get(start, ())))]
        while stack:
            for successor in stack[-1]:
                if successor in on_path:
                    return tuple(path[path.index(successor):])
                if successor not in visited:
                    path.append(successor)
                    on_path.add(successor)
                    # Dropping what is already explored up front keeps
                    # a deep queue's search linear in its edges at C speed.
                    onward = graph.get(successor, _NO_EDGES) - visited
                    stack.append(iter(sorted(onward)))
                    break
            else:
                stack.pop()
                done = path.pop()
                on_path.remove(done)
                visited.add(done)
        return None

    def check(self, start: TxnId) -> Optional[TxnId]:
        """Detect a cycle involving ``start``; return the chosen victim."""
        cycle = self.find_cycle(start)
        if cycle is None:
            return None
        self.cycles_found += 1
        return self._victim_policy(cycle)
