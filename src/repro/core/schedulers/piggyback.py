"""The Piggyback scheduler (paper §3.4, Algorithm 2).

Repartition transactions are *not* submitted to the processing queue.
Instead, when a normal transaction t_i arrives and ``TRep`` holds a
pending repartition transaction r_j that benefits t_i, the scheduler
injects r_j's operations into t_i.  The carrier already acquires locks
on the very tuples being moved, so the locking and distributed-commit
overhead of a standalone repartition transaction is saved — an on-demand
"repartition the data when it is accessed" strategy.

Two of the paper's caveats are implemented:

* a cap on how many operations may piggyback onto one carrier (too many
  lengthen the carrier enough to cause aborts);
* when a piggybacked carrier aborts, the operations are stripped, the
  repartition transaction returns to the pending pool, and the carrier
  is resubmitted *without* them (Algorithm 2, lines 13-15).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError
from ...txn.transaction import Transaction
from ...types import TxnId
from .base import Scheduler


@dataclass(frozen=True)
class PiggybackConfig:
    """Piggybacking limits."""

    #: Maximum repartition operations injected into one carrier.
    max_ops_per_carrier: int = 10

    def __post_init__(self) -> None:
        if self.max_ops_per_carrier < 1:
            raise ConfigError("max_ops_per_carrier must be >= 1")


class PiggybackScheduler(Scheduler):
    """Inject repartition operations into benefiting normal transactions."""

    name = "Piggyback"

    def __init__(self, config: PiggybackConfig | None = None) -> None:
        super().__init__()
        self.config = config or PiggybackConfig()
        self.piggybacks = 0
        self.carrier_failures = 0
        #: Carriers that already failed once ride clean from then on.
        self._do_not_piggyback: set[TxnId] = set()

    def admit(self, new_txns: list[Transaction]) -> None:
        """Nothing is queued; deployment rides entirely on arrivals."""

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def on_submit(self, txn: Transaction) -> None:
        session = self.session
        if session is None or not txn.is_normal:
            return
        if txn.type_id is None or txn.carrying_rep_txn is not None:
            return
        if txn.txn_id in self._do_not_piggyback:
            return
        candidate = session.trep.get(txn.type_id)
        if candidate is None:
            return
        if len(candidate.rep_ops) > self.config.max_ops_per_carrier:
            return
        claimed = session.claim_for_piggyback(txn.type_id)
        if claimed is None:
            return
        txn.attach_rep_ops(claimed.txn_id, claimed.rep_ops)
        self.piggybacks += 1

    def _handle_carrier_result(self, txn: Transaction, success: bool) -> None:
        session = self.session
        assert session is not None
        rep_id = txn.carrying_rep_txn
        assert rep_id is not None
        if success:
            session.complete(rep_id)
            txn.carrying_rep_txn = None
            return
        self.carrier_failures += 1
        session.release_piggyback(rep_id)
        txn.strip_rep_ops()
        # Algorithm 2 line 15: the carrier is resubmitted without the
        # repartition operations — never re-burden it.
        self._do_not_piggyback.add(txn.txn_id)
