"""The repartitioner: SOAP's coordinating component (paper §2.2).

Ties the pipeline together: take a partition plan from an optimizer,
diff it against the live partition map, run Algorithm 1 to generate and
rank repartition transactions (:meth:`Repartitioner.rank_plan`), and
hand the ranked specs to the run's one :class:`RepartitionSession` and
scheduler (:meth:`Repartitioner.submit`).  The repartitioner also wires
the scheduler into the transaction manager (arrival/completion hooks)
and the metrics collector (interval observations).
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Optional, Sequence

from ..metrics.collectors import MetricsCollector
from ..partitioning.cost_model import CostModel
from ..partitioning.operations import RepartitionOperation
from ..partitioning.plan import PartitionPlan, diff_plan
from ..routing.router import QueryRouter
from ..txn.manager import TransactionManager
from ..txn.transaction import Transaction
from ..workload.profile import WorkloadProfile
from .ranking import RepartitionTransactionSpec, generate_and_rank
from .schedulers.base import Scheduler
from .session import RepartitionSession

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class collector_paused:
    """``with collector_paused():`` — no cyclic collection inside the block.

    A plan allocates a few objects per key and frees none, so every pass
    while it is built walks it all for nothing (a third of the call at 23k
    types); ``src/`` has no finalizer or weak reference, so *when* a cycle
    dies cannot reach the model.  Re-entrant, exception-safe, leaves a
    disabled collector disabled.  No ``gc.freeze()``: no gain measured,
    and frozen cells would pile up in a warm worker pool.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


class Repartitioner:
    """Coordinates online deployment of repartition plans."""

    def __init__(
        self,
        env: "Environment",
        tm: TransactionManager,
        router: QueryRouter,
        metrics: MetricsCollector,
        cost_model: CostModel,
        scheduler: Scheduler,
    ) -> None:
        self.env = env
        self.tm = tm
        self.router = router
        self.metrics = metrics
        self.cost_model = cost_model
        self.scheduler = scheduler
        self.session: Optional[RepartitionSession] = None

    # ------------------------------------------------------------------
    # Planning + ranking
    # ------------------------------------------------------------------
    def rank_plan(
        self,
        plan: PartitionPlan,
        profile: WorkloadProfile,
        operations: Optional[Sequence[RepartitionOperation]] = None,
    ) -> list[RepartitionTransactionSpec]:
        """Diff the plan against the current epoch and run Algorithm 1.

        Diffing against the store's published :class:`MapEpoch` (rather
        than the mutable live map) pins planning to one consistent map
        version even if repartition transactions commit mid-ranking.
        """
        epoch = self.router.store.current_epoch
        if operations is None:
            operations = diff_plan(epoch, plan)
        return generate_and_rank(
            operations,
            plan,
            epoch,
            profile,
            self.cost_model,
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def submit(
        self, specs: Sequence[RepartitionTransactionSpec]
    ) -> list[Transaction]:
        """Hand ranked specs to the session; return their transactions.

        The one way in for every plan source — the workload plan,
        elastic drains, rebalances and straggler sweeps, the automatic
        trigger, replication.  The transaction manager holds exactly one
        scheduler slot, so they all share one session and scheduler; the
        first call opens the session and wires the scheduler into the
        transaction manager and the interval observers, and every call
        adds the specs as PENDING transactions and lets the scheduler
        admit them.
        """
        if self.session is None:
            self.session = RepartitionSession(self.env, self.tm, self.metrics)
            self.scheduler.bind(self.session)
            self.tm.scheduler = self.scheduler
            self.metrics.interval_observers.append(self.scheduler.on_interval)
        new_txns = self.session.add(specs)
        self.scheduler.admit(new_txns)
        return new_txns
