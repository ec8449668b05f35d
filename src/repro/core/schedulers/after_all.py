"""AfterAll: repartition only when the system is idle (paper §3.2).

Every repartition transaction is submitted with a priority *lower* than
normal transactions, so the dispatcher only picks one up when no normal
transaction is waiting.  Interference is minimal — but under high load
there is no idle time, so the plan barely deploys and the system stays
overloaded (the behaviour the paper attributes to Sword [15]).
"""

from __future__ import annotations

from ...txn.transaction import Transaction
from ...types import Priority
from .base import Scheduler


class AfterAllScheduler(Scheduler):
    """Submit everything at LOW priority, behind normal transactions."""

    name = "AfterAll"

    def admit(self, new_txns: list[Transaction]) -> None:
        assert self.session is not None
        for rep_txn in new_txns:
            self.session.submit(rep_txn, Priority.LOW)
