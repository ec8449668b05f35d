"""The Hybrid scheduler (paper §3.5): piggyback + feedback combined.

The piggyback module claims repartition transactions for incoming
carriers exactly as in §3.4; the feedback module keeps the AfterAll
baseline queued at LOW priority and promotes transactions each interval.
Crucially, the feedback module's PV *counts the piggybacked operations
too*, so when the arrival stream offers many carriers the controller
promotes fewer standalone repartition transactions, and when carriers
are scarce (low load, uniform workload) it uses the idle capacity
piggybacking alone cannot exploit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ...metrics.collectors import IntervalRecord
from ...txn.transaction import Transaction
from ..session import RepartitionSession, RepState
from .base import Scheduler
from .feedback import FeedbackConfig, FeedbackScheduler
from .piggyback import PiggybackConfig, PiggybackScheduler


class HybridScheduler(Scheduler):
    """Compose the Piggyback and Feedback modules."""

    name = "Hybrid"

    def __init__(
        self,
        feedback_config: Optional[FeedbackConfig] = None,
        piggyback_config: Optional[PiggybackConfig] = None,
    ) -> None:
        super().__init__()
        feedback_config = feedback_config or FeedbackConfig()
        # The defining feature of Hybrid: piggybacked work counts toward
        # the controller's measured repartition cost.
        feedback_config = replace(
            feedback_config, count_piggybacked_in_pv=True
        )
        self.feedback = FeedbackScheduler(feedback_config)
        self.piggyback = PiggybackScheduler(piggyback_config)

    def bind(self, session: RepartitionSession) -> None:
        super().bind(session)
        self.feedback.bind(session)
        self.piggyback.bind(session)

    def on_interval(self, record: IntervalRecord) -> None:
        self.feedback.on_interval(record)

    def admit(self, new_txns: list[Transaction]) -> None:
        # The feedback module owns queue residency (AfterAll baseline);
        # the piggyback module claims transactions out of the queue via
        # TRep when carriers arrive.
        self.feedback.admit(new_txns)

    def on_submit(self, txn: Transaction) -> None:
        self.piggyback.on_submit(txn)

    def on_finished(self, txn: Transaction, success: bool) -> None:
        session = self.session
        if txn.is_normal and txn.carrying_rep_txn is not None:
            rep_id = txn.carrying_rep_txn
            # Carrier results belong to the piggyback module (it tracks
            # failures and the do-not-piggyback set).
            self.piggyback.on_finished(txn, success)
            if not success and session is not None:
                # A released repartition transaction must rejoin the LOW
                # baseline queue, or the feedback module can never
                # promote it again.
                released = session.rep_txn(rep_id)
                if (
                    released is not None
                    and session.state_of(rep_id) is RepState.PENDING
                ):
                    session.submit(released, released.priority)
            return
        super().on_finished(txn, success)

    @property
    def piggybacks(self) -> int:
        """Operations deployed via carriers (exposed for reports)."""
        return self.piggyback.piggybacks

    @property
    def promotions(self) -> int:
        """Feedback promotions performed (exposed for reports)."""
        return self.feedback.promotions
