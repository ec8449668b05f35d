"""The repartition session: shared state for a run's plan deployments.

A session owns the ranked repartition transactions produced by
Algorithm 1 — every plan submitted during the run — and tracks each
one's state while the scheduler deploys them:

* ``PENDING`` — known but not in the processing queue;
* ``QUEUED`` — submitted to the transaction manager;
* ``PIGGYBACKED`` — its operations are riding inside a normal carrier;
* ``DONE`` — committed (directly or via carrier).

It also exposes ``TRep`` — the type-id → repartition-transaction lookup
that Algorithm 2's piggybacking consults — and records when the last
repartition transaction finished.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

from ..metrics.collectors import MetricsCollector
from ..txn.manager import TransactionManager
from ..txn.transaction import Transaction
from ..types import Priority, TxnId
from .ranking import RepartitionTransactionSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class RepState(enum.Enum):
    """Deployment state of one repartition transaction."""

    PENDING = "pending"
    QUEUED = "queued"
    PIGGYBACKED = "piggybacked"
    DONE = "done"


class RepartitionSession:
    """Tracks the deployment of every plan submitted during a run."""

    def __init__(
        self,
        env: "Environment",
        tm: TransactionManager,
        metrics: MetricsCollector,
    ) -> None:
        self.env = env
        self.tm = tm
        self.metrics = metrics
        #: When the last unfinished transaction committed; ``None``
        #: while work is outstanding (and for a session never given any).
        self.completed_at: Optional[float] = None
        self.rep_txns: list[Transaction] = []
        self._by_id: dict[TxnId, Transaction] = {}
        self._states: dict[TxnId, RepState] = {}
        #: Transactions not yet DONE (kept in step by add/complete).
        self._unfinished = 0
        #: TRep — benefiting normal type -> repartition transaction.
        self.trep: dict[int, Transaction] = {}
        self.ops_total = 0
        # Route applied-op notifications into the metrics collector.
        tm.executor.on_rep_op_applied = lambda _op, _txn: (
            metrics.record_rep_op_applied()
        )

    def add(
        self, specs: Sequence[RepartitionTransactionSpec]
    ) -> list[Transaction]:
        """Turn ranked specs into PENDING transactions of this session.

        The one way work enters a session: the workload plan, elastic
        drains and rebalances, and replication all arrive here, while a
        deployment is running or after it finished.  Transactions are
        created in spec order; of two specs benefiting one type the
        first — the higher benefit density — keeps the TRep slot.
        """
        new_txns = [
            self.tm.create_repartition(
                ops=spec.ops,
                type_id=spec.type_id,
                benefit=spec.benefit,
                cost=spec.cost,
                benefit_density=spec.benefit_density,
            )
            for spec in specs
        ]
        for txn in new_txns:
            self.rep_txns.append(txn)
            self._by_id[txn.txn_id] = txn
            self._states[txn.txn_id] = RepState.PENDING
            if (
                txn.type_id is not None
                and txn.type_id >= 0
                and txn.type_id not in self.trep
            ):
                self.trep[txn.type_id] = txn
        self._unfinished += len(new_txns)
        added_ops = sum(len(txn.rep_ops) for txn in new_txns)
        self.ops_total += added_ops
        self.metrics.set_rep_ops_total(
            self.metrics.rep_ops_total + added_ops
        )
        if new_txns:
            # The recorded completion time is the *last* migration's.
            self.completed_at = None
        return new_txns

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def state_of(self, txn_id: TxnId) -> RepState:
        """Deployment state of one repartition transaction."""
        return self._states[txn_id]

    def rep_txn(self, txn_id: TxnId) -> Optional[Transaction]:
        """This session's repartition transaction ``txn_id``, if any."""
        return self._by_id.get(txn_id)

    def pending(self) -> list[Transaction]:
        """PENDING repartition transactions, in rank order."""
        return [
            txn
            for txn in self.rep_txns
            if self._states[txn.txn_id] is RepState.PENDING
        ]

    def unfinished_count(self) -> int:
        """Repartition transactions not yet DONE."""
        return self._unfinished

    @property
    def is_complete(self) -> bool:
        """Whether every repartition transaction committed."""
        return self._unfinished == 0

    def mean_rep_txn_cost(self) -> float:
        """Average repartition-transaction cost (feedback sizing input)."""
        if not self.rep_txns:
            return 0.0
        return sum(txn.cost for txn in self.rep_txns) / len(self.rep_txns)

    # ------------------------------------------------------------------
    # Scheduler actions
    # ------------------------------------------------------------------
    def submit(self, rep_txn: Transaction, priority: Priority) -> None:
        """Submit a PENDING repartition transaction to the queue."""
        state = self._states[rep_txn.txn_id]
        if state is not RepState.PENDING:
            raise ValueError(
                f"repartition txn {rep_txn.txn_id} is {state.value}, "
                "cannot submit"
            )
        self._states[rep_txn.txn_id] = RepState.QUEUED
        self.tm.submit(rep_txn, priority)

    def promote(self, rep_txn: Transaction, priority: Priority) -> bool:
        """Raise the priority of a QUEUED (still waiting) transaction."""
        if self._states[rep_txn.txn_id] is not RepState.QUEUED:
            return False
        return self.tm.queue.reprioritise(rep_txn.txn_id, priority)

    def claim_for_piggyback(self, type_id: int) -> Optional[Transaction]:
        """Take the pending repartition transaction benefiting ``type_id``.

        Returns ``None`` when there is nothing to piggyback: no such
        transaction, already done/piggybacked, or already dispatched to
        a worker (it left the queue and cannot be recalled).
        """
        rep_txn = self.trep.get(type_id)
        if rep_txn is None:
            return None
        state = self._states[rep_txn.txn_id]
        if state is RepState.PENDING:
            self._states[rep_txn.txn_id] = RepState.PIGGYBACKED
            return rep_txn
        if state is RepState.QUEUED:
            if self.tm.queue.remove(rep_txn.txn_id) is None:
                return None  # already dispatched; let it run as a txn
            self._states[rep_txn.txn_id] = RepState.PIGGYBACKED
            return rep_txn
        return None

    def release_piggyback(self, rep_txn_id: TxnId) -> Optional[Transaction]:
        """Return a PIGGYBACKED transaction to PENDING (carrier aborted)."""
        state = self._states.get(rep_txn_id)
        if state is not RepState.PIGGYBACKED:
            return None
        self._states[rep_txn_id] = RepState.PENDING
        return self._by_id[rep_txn_id]

    def complete(self, rep_txn_id: TxnId) -> None:
        """Mark one repartition transaction DONE (removes it from TRep)."""
        done_txn = self._by_id.get(rep_txn_id)
        if done_txn is None or self._states[rep_txn_id] is RepState.DONE:
            return
        self._states[rep_txn_id] = RepState.DONE
        self._unfinished -= 1
        if self.trep.get(done_txn.type_id) is done_txn:
            del self.trep[done_txn.type_id]
        if self.is_complete:
            self.completed_at = self.env.now
