"""Transaction objects: normal OLTP transactions and repartition transactions.

A normal transaction carries queries (5 single-tuple accesses in the
paper's workload).  A repartition transaction carries repartition
operations.  With the piggyback strategy a normal transaction may carry
*both*: the repartitioner injects the operations of a pending repartition
transaction into it (Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..partitioning.operations import RepartitionOperation
from ..routing.query import Query
from ..types import Priority, TxnId, TxnKind, TxnStatus


@dataclass
class Transaction:
    """A unit of work flowing through the transaction manager."""

    txn_id: TxnId
    kind: TxnKind
    queries: list[Query] = field(default_factory=list)
    rep_ops: list[RepartitionOperation] = field(default_factory=list)
    priority: Priority = Priority.NORMAL
    #: Workload type id (normal txns) / benefiting type id (repartition txns).
    type_id: Optional[int] = None
    status: TxnStatus = TxnStatus.CREATED

    # Repartition-transaction metadata filled by Algorithm 1.
    benefit: float = 0.0
    cost: float = 0.0
    benefit_density: float = 0.0

    # Piggyback bookkeeping: id of the repartition transaction whose ops
    # this (normal) transaction is carrying, if any.
    carrying_rep_txn: Optional[TxnId] = None

    # Timing (virtual seconds); ``first_submitted_at`` survives resubmits
    # so latency spans the whole retry chain, as a user would perceive it.
    created_at: float = 0.0
    first_submitted_at: Optional[float] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    attempts: int = 0
    abort_reason: Optional[str] = None
    #: Machine-readable abort category (``TransactionAborted.cause``)
    #: for the aborts-by-cause metric; cleared on resubmit.
    abort_cause: Optional[str] = None

    # Work-unit accounting (filled by the executor) for the PV metric.
    normal_cost_units: float = 0.0
    rep_cost_units: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is TxnKind.REPARTITION and self.queries:
            raise ValueError(
                f"repartition transaction {self.txn_id} cannot carry queries"
            )
        if self.kind is TxnKind.REPARTITION and not self.rep_ops:
            raise ValueError(
                f"repartition transaction {self.txn_id} has no operations"
            )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def is_normal(self) -> bool:
        """Whether this is a client (non-repartition) transaction."""
        return self.kind is TxnKind.NORMAL

    @property
    def is_repartition(self) -> bool:
        """Whether this is a pure repartition transaction."""
        return self.kind is TxnKind.REPARTITION

    @property
    def is_piggybacked(self) -> bool:
        """Whether a normal transaction carries repartition operations."""
        return self.is_normal and bool(self.rep_ops)

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-finish latency, once finished."""
        if self.finished_at is None or self.first_submitted_at is None:
            return None
        return self.finished_at - self.first_submitted_at

    @property
    def committed(self) -> bool:
        """Whether the transaction committed."""
        return self.status is TxnStatus.COMMITTED

    # ------------------------------------------------------------------
    # Piggyback helpers (Algorithm 2)
    # ------------------------------------------------------------------
    def attach_rep_ops(
        self, rep_txn_id: TxnId, ops: list[RepartitionOperation]
    ) -> None:
        """Inject a repartition transaction's operations into this one."""
        if not self.is_normal:
            raise ValueError("only normal transactions can carry piggybacks")
        if self.carrying_rep_txn is not None:
            raise ValueError(
                f"transaction {self.txn_id} already carries repartition "
                f"transaction {self.carrying_rep_txn}"
            )
        self.carrying_rep_txn = rep_txn_id
        self.rep_ops = list(ops)

    def strip_rep_ops(self) -> list[RepartitionOperation]:
        """Remove piggybacked operations (carrier failed; Algorithm 2 l.14)."""
        ops, self.rep_ops = self.rep_ops, []
        self.carrying_rep_txn = None
        return ops

    def __repr__(self) -> str:
        tag = self.kind.value
        if self.is_piggybacked:
            tag = "piggybacked"
        return (
            f"<Txn {self.txn_id} {tag} prio={self.priority.name} "
            f"status={self.status.value}>"
        )
