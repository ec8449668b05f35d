"""The transaction manager: global ids, submission, dispatch, retry.

Mirrors the paper's TM (§2.1): every submitted transaction receives a
global unique id, enters the priority processing queue, and is dispatched
when a connection slot frees up.  The TM coordinates the transaction's
life cycle (the executor implements 2PL + 2PC) and notifies the
repartition scheduler of arrivals and completions, which is where the
Piggyback strategy hooks in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional, Protocol

from ..errors import ConfigError
from ..partitioning.operations import RepartitionOperation
from ..routing.query import Query
from ..sim.events import Event
from ..sim.resources import Resource
from ..types import Priority, TxnId, TxnKind, TxnStatus
from .executor import TransactionExecutor
from .queue import ProcessingQueue
from .transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.collectors import MetricsCollector
    from ..sim.environment import Environment


class SchedulerHook(Protocol):
    """The surface the repartition scheduler exposes to the TM."""

    def on_submit(self, txn: Transaction) -> None:
        """Called for every normal transaction entering the queue."""

    def on_finished(self, txn: Transaction, success: bool) -> None:
        """Called when any transaction commits or aborts."""


class NullScheduler:
    """Default hook used when no repartitioning is active."""

    def on_submit(self, txn: Transaction) -> None:
        """No-op."""

    def on_finished(self, txn: Transaction, success: bool) -> None:
        """No-op."""


#: Abort reason used for transactions that expired waiting in the queue.
QUEUE_TIMEOUT_REASON = "transaction deadline exceeded in queue"

#: Abort *cause* label for the same (no exception type is involved —
#: the reaper aborts queued transactions without raising).
QUEUE_TIMEOUT_CAUSE = "queue_timeout"


@dataclass(frozen=True)
class TransactionManagerConfig:
    """Dispatch and retry policy."""

    #: Simultaneously executing transactions (cluster-wide connection cap).
    max_concurrent: int = 50
    #: Total attempts (first + retries) for an aborted normal transaction.
    max_attempts: int = 3
    #: Base delay before a retry is resubmitted (attempt 2 waits this
    #: long; each further attempt multiplies by ``retry_backoff_factor``).
    retry_delay_s: float = 0.1
    #: Exponential backoff multiplier applied per failed attempt.
    retry_backoff_factor: float = 2.0
    #: Ceiling on the (pre-jitter) retry delay.
    max_retry_delay_s: float = 10.0
    #: Random spread added to each retry delay: the actual delay is
    #: multiplied by ``1 + U(0, retry_jitter)``.  Jitter decorrelates the
    #: retry stampede after a node crash; it requires the manager to be
    #: given an ``rng`` so runs stay reproducible.
    retry_jitter: float = 0.0
    #: Whether aborted repartition transactions are resubmitted until done.
    retry_repartition: bool = True
    #: Client-side transaction deadline: a *normal* transaction that has
    #: already been in the system longer than this when the dispatcher
    #: picks it up is aborted without executing (models the JTA/Bitronix
    #: transaction timeout of the paper's prototype).  ``None`` disables.
    queue_timeout_s: Optional[float] = None
    #: LOW-priority (AfterAll-style) transactions dispatch only while the
    #: system is *idle*: at most this fraction of the connection slots in
    #: use.  This implements the paper's "scheduled when the system is
    #: idle" semantics rather than merely "queue momentarily empty".
    low_priority_idle_fraction: float = 0.1
    #: How often the dispatcher re-checks idleness while holding back a
    #: LOW-priority transaction.
    idle_poll_s: float = 0.5
    #: How often the reaper scans the queue for transactions past their
    #: deadline (so clients give up *at* the timeout, not whenever the
    #: dispatcher would finally have served them).
    reaper_period_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.retry_delay_s < 0:
            raise ConfigError("retry delay cannot be negative")
        if self.retry_backoff_factor < 1.0:
            raise ConfigError("retry backoff factor must be >= 1")
        if self.max_retry_delay_s < self.retry_delay_s:
            raise ConfigError("max retry delay cannot undercut the base delay")
        if self.retry_jitter < 0:
            raise ConfigError("retry jitter cannot be negative")
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise ConfigError("queue timeout must be positive or None")
        if not 0.0 <= self.low_priority_idle_fraction <= 1.0:
            raise ConfigError("idle fraction must be in [0, 1]")
        if self.idle_poll_s <= 0:
            raise ConfigError("idle poll period must be positive")
        if self.reaper_period_s <= 0:
            raise ConfigError("reaper period must be positive")


class TransactionManager:
    """Creates, queues, dispatches, and retries transactions."""

    def __init__(
        self,
        env: "Environment",
        executor: TransactionExecutor,
        metrics: Optional["MetricsCollector"] = None,
        config: Optional[TransactionManagerConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self.executor = executor
        self.metrics = metrics
        self.config = config or TransactionManagerConfig()
        if self.config.retry_jitter > 0 and rng is None:
            raise ConfigError("retry jitter requires an rng")
        self._retry_rng = rng
        self.queue = ProcessingQueue(env)
        self.scheduler: SchedulerHook = NullScheduler()
        self._ids = count(1)
        self._slots = Resource(env, self.config.max_concurrent)
        #: Every *open* normal transaction (submitted; not yet committed,
        #: reaped, or aborted for good) in first-submission = deadline
        #: order, for the reaper.  Empty when there is no deadline.
        self._open: dict[TxnId, Transaction] = {}
        self._dispatcher = env.process(self._dispatch_loop())
        if self.config.queue_timeout_s is not None:
            self._reaper = env.process(self._reaper_loop())
        self.in_flight = 0
        self.total_submitted = 0
        self.total_committed = 0
        self.total_aborted = 0
        self.total_retries = 0

    # ------------------------------------------------------------------
    # Transaction factories
    # ------------------------------------------------------------------
    def next_id(self) -> int:
        """Allocate a global unique transaction id."""
        return next(self._ids)

    def create_normal(
        self, queries: list[Query], type_id: Optional[int] = None
    ) -> Transaction:
        """Build a normal transaction (not yet submitted)."""
        return Transaction(
            txn_id=self.next_id(),
            kind=TxnKind.NORMAL,
            queries=list(queries),
            type_id=type_id,
            created_at=self.env.now,
        )

    def create_repartition(
        self,
        ops: list[RepartitionOperation],
        type_id: Optional[int] = None,
        benefit: float = 0.0,
        cost: float = 0.0,
        benefit_density: float = 0.0,
    ) -> Transaction:
        """Build a repartition transaction (not yet submitted).  ``ops`` is
        adopted: a ``rep_ops`` list is copied or rebound, never mutated."""
        return Transaction(
            txn_id=self.next_id(),
            kind=TxnKind.REPARTITION,
            rep_ops=ops,
            type_id=type_id,
            benefit=benefit,
            cost=cost,
            benefit_density=benefit_density,
            created_at=self.env.now,
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, txn: Transaction, priority: Optional[Priority] = None
    ) -> None:
        """Queue a transaction for execution."""
        if priority is not None:
            txn.priority = priority
        txn.status = TxnStatus.QUEUED
        txn.submitted_at = self.env.now
        first = txn.first_submitted_at is None
        if first:
            txn.first_submitted_at = self.env.now
        txn.attempts += 1
        if txn.is_normal:
            if first and self.config.queue_timeout_s is not None:
                self._open[txn.txn_id] = txn
            # Give the repartition scheduler its piggyback opportunity
            # before the transaction becomes visible to the dispatcher.
            self.scheduler.on_submit(txn)
        self.total_submitted += 1
        if self.metrics is not None:
            self.metrics.record_submitted(txn)
        self.queue.put(txn)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _idle_enough_for_low_priority(self) -> bool:
        threshold = int(
            self.config.max_concurrent * self.config.low_priority_idle_fraction
        )
        return self.in_flight <= threshold

    def _dispatch_loop(self) -> Generator[Event, Any, None]:
        while True:
            if len(self.queue) == 0:
                yield self.queue.wait_nonempty()
                continue
            head = self.queue.peek()
            if (
                head is not None
                and head.priority is Priority.LOW
                and not self._idle_enough_for_low_priority()
            ):
                # AfterAll semantics: background repartition work waits
                # for genuine idleness, not just an empty queue.
                yield self.env.timeout(self.config.idle_poll_s)
                continue
            slot = self._slots.request()
            yield slot
            txn = self.queue.pop()
            if txn is None:
                # The queued item was claimed (piggyback) meanwhile.
                self._slots.release(slot)
                continue
            if (
                txn.priority is Priority.LOW
                and not self._idle_enough_for_low_priority()
            ):
                # Idleness evaporated while we waited for the slot; put
                # the transaction back and re-check shortly.
                self.queue.put(txn)
                self._slots.release(slot)
                yield self.env.timeout(self.config.idle_poll_s)
                continue
            self.env.process(self._run(txn, slot))

    def _reaper_loop(self) -> Generator[Event, Any, None]:
        """Abort queued normal transactions the moment they expire.

        A scan is O(expired + in flight), not O(queue): it walks the open
        transactions oldest deadline first, up to the first one in time.
        The overdue ones that are queued (the rest are caught when they
        re-queue, or by :meth:`_run`) are aborted in **queue order**, as a
        walk over the whole waiting queue would: the schedulers see it.
        """
        queue = self.queue
        while True:
            yield self.env.timeout(self.config.reaper_period_s)
            expired = []
            for txn in self._open.values():
                if not self._expired(txn):
                    break
                position = queue.position(txn.txn_id)
                if position is not None:
                    expired.append((position, txn))
            expired.sort()  # positions are unique: never compares a txn
            for _position, txn in expired:
                if queue.remove(txn.txn_id) is None:
                    continue  # claimed by an earlier abort's on_finished
                self._abort_expired(txn)

    def _abort_expired(self, txn: Transaction) -> None:
        txn.status = TxnStatus.ABORTED
        txn.abort_reason = QUEUE_TIMEOUT_REASON
        txn.abort_cause = QUEUE_TIMEOUT_CAUSE
        txn.finished_at = self.env.now
        self.total_aborted += 1
        self._open.pop(txn.txn_id, None)
        if self.metrics is not None:
            self.metrics.record_aborted(txn)
        self.scheduler.on_finished(txn, False)

    def _expired(self, txn: Transaction) -> bool:
        timeout = self.config.queue_timeout_s
        if timeout is None or not txn.is_normal:
            return False
        assert txn.first_submitted_at is not None
        return self.env.now - txn.first_submitted_at > timeout

    def _run(self, txn: Transaction, slot: Any) -> Generator[Event, Any, None]:
        if self._expired(txn):
            # Normally the reaper catches these; this guards the window
            # between two reaper scans.
            self._slots.release(slot)
            self._abort_expired(txn)
            return
            yield  # pragma: no cover - keeps this a generator function
        self.in_flight += 1
        try:
            success = yield self.env.process(self.executor.execute(txn))
        finally:
            self.in_flight -= 1
            self._slots.release(slot)
        if success:
            self.total_committed += 1
            self._open.pop(txn.txn_id, None)
            if self.metrics is not None:
                self.metrics.record_committed(txn)
            self.scheduler.on_finished(txn, True)
        else:
            self.total_aborted += 1
            if self.metrics is not None:
                self.metrics.record_aborted(txn)
            self.scheduler.on_finished(txn, False)
            self._maybe_retry(txn)

    # ------------------------------------------------------------------
    # Retry
    # ------------------------------------------------------------------
    def _maybe_retry(self, txn: Transaction) -> None:
        if txn.is_repartition:
            if self.config.retry_repartition:
                self.env.process(self._resubmit_later(txn))
            return
        if txn.attempts < self.config.max_attempts:
            self.env.process(self._resubmit_later(txn))
        else:
            self._open.pop(txn.txn_id, None)

    def _retry_delay(self, txn: Transaction) -> float:
        """Exponential backoff with optional jitter for attempt N+1.

        ``txn.attempts`` failed attempts have happened; the first retry
        waits the base delay, each further one doubles (by default) up
        to ``max_retry_delay_s``.  Jitter spreads simultaneous victims
        of one crash so they do not re-arrive in lockstep.
        """
        cfg = self.config
        exponent = max(0, txn.attempts - 1)
        delay = min(
            cfg.max_retry_delay_s,
            cfg.retry_delay_s * cfg.retry_backoff_factor**exponent,
        )
        if cfg.retry_jitter > 0:
            assert self._retry_rng is not None
            delay *= 1.0 + cfg.retry_jitter * self._retry_rng.random()
        return delay

    def _resubmit_later(
        self, txn: Transaction
    ) -> Generator[Event, Any, None]:
        yield self.env.timeout(self._retry_delay(txn))
        self.total_retries += 1
        if self.metrics is not None:
            self.metrics.record_retry(txn)
        txn.status = TxnStatus.CREATED
        txn.abort_reason = None
        txn.abort_cause = None
        txn.finished_at = None
        self.submit(txn)
