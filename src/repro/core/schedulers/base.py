"""Scheduler interface and shared bookkeeping.

A scheduler decides *when* each repartition transaction runs.  It plugs
into the system at four points:

* :meth:`Scheduler.admit` — ranked repartition transactions just joined
  the session (a workload plan, a drain, a rebalance …); submit or hold
  them;
* :meth:`Scheduler.on_submit` — a normal transaction is entering the
  processing queue (the Piggyback strategies inject operations here);
* :meth:`Scheduler.on_interval` — an interval closed; adapt (Feedback);
* :meth:`Scheduler.on_finished` — any transaction committed/aborted.

The base class implements the bookkeeping every strategy shares:
marking repartition transactions done when they commit, whether they ran
standalone or piggybacked on a carrier.

Schedulers never touch the partition map themselves: they only decide
when repartition transactions run, and every placement change those
transactions make is staged and atomically published through the
:class:`~repro.routing.epoch.PartitionMapStore` at commit.
"""

from __future__ import annotations

from typing import Optional

from ...metrics.collectors import IntervalRecord
from ...txn.transaction import Transaction
from ..session import RepartitionSession


class Scheduler:
    """Base scheduler: shared completion bookkeeping, no-op scheduling."""

    name = "base"

    def __init__(self) -> None:
        self.session: Optional[RepartitionSession] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, session: RepartitionSession) -> None:
        """Attach this scheduler to a repartition session."""
        self.session = session

    def admit(self, new_txns: list[Transaction]) -> None:
        """PENDING transactions joined the session; submit or hold them.

        Called by :meth:`~repro.core.repartitioner.Repartitioner.submit`
        for every batch alike — the first plan of a run, or elastic
        migrations arriving mid-deployment or after it finished.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_interval(self, record: IntervalRecord) -> None:
        """An interval closed (only adaptive strategies react)."""

    def on_submit(self, txn: Transaction) -> None:
        """A normal transaction is entering the queue."""

    def on_finished(self, txn: Transaction, success: bool) -> None:
        """A transaction finished; update repartition-transaction state."""
        session = self.session
        if session is None:
            return
        if txn.is_repartition:
            if success:
                session.complete(txn.txn_id)
            # On failure the transaction manager resubmits it with its
            # current priority; the session keeps it QUEUED.
            return
        if txn.carrying_rep_txn is not None:
            self._handle_carrier_result(txn, success)

    def _handle_carrier_result(self, txn: Transaction, success: bool) -> None:
        """Default carrier handling (overridden by piggyback strategies)."""
        session = self.session
        assert session is not None
        rep_id = txn.carrying_rep_txn
        assert rep_id is not None
        if success:
            session.complete(rep_id)
            txn.carrying_rep_txn = None
        else:
            session.release_piggyback(rep_id)
            txn.strip_rep_ops()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
