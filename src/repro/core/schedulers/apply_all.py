"""ApplyAll: deploy the plan as fast as possible (paper §3.2).

Every repartition transaction is submitted immediately with a priority
*higher* than normal transactions.  Because the processing queue serves
priorities strictly, this pauses normal processing until the whole plan
is applied — the fastest deployment, at the cost of a throughput
collapse and a latency spike that (under high load) outlasts the
repartitioning itself while the backlog drains.
"""

from __future__ import annotations

from ...txn.transaction import Transaction
from ...types import Priority
from .base import Scheduler


class ApplyAllScheduler(Scheduler):
    """Submit everything at HIGH priority, ahead of normal transactions."""

    name = "ApplyAll"

    def admit(self, new_txns: list[Transaction]) -> None:
        assert self.session is not None
        for rep_txn in new_txns:
            self.session.submit(rep_txn, Priority.HIGH)
