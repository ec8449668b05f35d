"""Transaction execution: locking, work, repartition ops, commit, undo.

The executor turns a :class:`~repro.txn.transaction.Transaction` into a
simulation process implementing strict two-phase locking:

1. route each query, acquire the tuple lock (S for reads, X for writes)
   at the owning node, and charge the query's work to that node;
2. execute any repartition operations the transaction carries (its own,
   if it is a repartition transaction, or piggybacked ones) that survive
   the staging-time check — locking at source *and* destination,
   charging copy work, and moving bytes across the network;
3. run two-phase commit when more than one partition participated;
4. on commit, apply deferred effects (tuple deletions at migration
   sources, partition-map updates) and release all locks;
5. on abort (deadlock, lock timeout, injected failure, 2PC NO vote),
   undo every applied write and inserted replica, release locks, and
   report the failure.

Cost model hookup: a transaction whose queries span one partition is
charged ``C`` in total, one spanning several is charged ``2·C`` (§3.1) —
the extra work is exactly the overhead the repartition plan removes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..cluster.cluster import Cluster
from ..cluster.node import DataNode
from ..errors import (
    InjectedFault,
    LockTimeout,
    NodeDownError,
    StaleRouteAbort,
    TransactionAborted,
    TwoPhaseAbort,
)
from ..locking.lock_manager import LockMode
from ..partitioning.cost_model import CostModel
from ..partitioning.operations import (
    CreateReplica,
    DeleteReplica,
    Migrate,
    RepartitionOperation,
)
from ..routing.epoch import EpochStage, MapEpoch
from ..routing.query import Query
from ..routing.router import QueryRouter
from ..sim.events import Event
from ..types import AccessMode, PartitionId, Priority, TxnStatus
from .transaction import Transaction
from .two_phase_commit import TwoPhaseCommitCoordinator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..storage.wal import WriteAheadLog

#: Node id used for the coordinator (the query-router/TM machine).
COORDINATOR_NODE_ID = -1

#: The two op kinds that copy a tuple, and the lock each takes on its
#: current primary: exclusive to move it away, shared to replicate it.
_SOURCE_LOCK = {Migrate: LockMode.EXCLUSIVE, CreateReplica: LockMode.SHARED}

#: Sort key wherever a set of nodes must be walked deterministically.
_node_id = attrgetter("node_id")


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution-time knobs."""

    #: Abort a transaction whose lock wait exceeds this (None = wait forever).
    lock_timeout_s: Optional[float] = 5.0
    #: Probability that executing one repartition operation fails
    #: (injected fault, e.g. the destination rejecting the insert).
    rep_op_failure_probability: float = 0.0
    #: Isolation level.  The paper's prototype runs PostgreSQL at
    #: ``"read_committed"`` (reads do not hold tuple locks; only writes
    #: take exclusive locks until commit).  ``"serializable"`` makes
    #: reads hold shared locks to commit (strict 2PL) — the paper notes
    #: this "will decrease the system concurrency".
    isolation: str = "read_committed"
    #: Fixed work charged once per transaction (begin/commit processing
    #: at the TM).  §3.1's granularity trade-off: per-op repartition
    #: transactions multiply this overhead, one giant transaction
    #: amortises it but monopolises locks.
    per_txn_overhead_units: float = 0.0
    #: What to do when a concurrent migration invalidates a route between
    #: the routing decision and the lock grant (or, for read-committed
    #: reads, the commit):
    #:
    #: * ``"follow"`` (default) — re-route and forward to the tuple's
    #:   new home, the paper-faithful behaviour;
    #: * ``"abort"`` — route against the transaction's pinned epoch and
    #:   abort with the retryable ``stale_route`` cause, surfacing map
    #:   churn to the retry/backoff machinery instead of hiding it.
    stale_route_policy: str = "follow"

    def __post_init__(self) -> None:
        if self.lock_timeout_s is not None and self.lock_timeout_s <= 0:
            raise ValueError("lock timeout must be positive or None")
        if not 0.0 <= self.rep_op_failure_probability <= 1.0:
            raise ValueError("rep-op failure probability must be in [0, 1]")
        if self.isolation not in ("read_committed", "serializable"):
            raise ValueError(f"unknown isolation level {self.isolation!r}")
        if self.per_txn_overhead_units < 0:
            raise ValueError("per-transaction overhead cannot be negative")
        if self.stale_route_policy not in ("follow", "abort"):
            raise ValueError(
                f"unknown stale-route policy {self.stale_route_policy!r}"
            )


class _Attempt:
    """Everything one execution attempt of one transaction accumulates."""

    __slots__ = (
        "txn", "routing_epoch", "touched", "undo", "read_routes", "ops",
        "stage", "journaled",
    )

    def __init__(self, txn: Transaction, routing_epoch: Optional[MapEpoch]) -> None:
        self.txn = txn
        #: The epoch queries route against: the pinned one under the
        #: "abort" policy, so map churn surfaces as a stale-route abort;
        #: ``None`` (the live epoch, then forward) under "follow".
        self.routing_epoch = routing_epoch
        #: Nodes locked or charged so far (2PC participants, lock release).
        self.touched: set[DataNode] = set()
        #: ``(node, key, before)`` per applied change, oldest first:
        #: ``before`` is the overwritten ``(value, version)``, or ``None``
        #: for a replica this attempt inserted.
        self.undo: list[tuple[DataNode, int, Optional[tuple[int, int]]]] = []
        #: (key, partition) pairs reads actually used, for the commit-time
        #: stale check under the "abort" policy.
        self.read_routes: list[tuple[int, PartitionId]] = []
        #: The carried operations that survived the staging-time check.
        self.ops: list[RepartitionOperation] = []
        #: Their map changes accumulate here and publish atomically at
        #: commit; opened only when ``ops`` is non-empty.
        self.stage: Optional[EpochStage] = None
        #: Nodes whose WAL holds this attempt's BEGIN; stays ``None``
        #: (nothing allocated, nothing to close) without a WAL.
        self.journaled: Optional[list[DataNode]] = None

    def wal(self, node: DataNode) -> Optional["WriteAheadLog"]:
        """``node``'s log with this attempt's BEGIN in it, for one more
        record — ``None`` (journal nothing) for a node without a WAL."""
        wal = node.wal
        if wal is not None:
            if self.journaled is None:
                self.journaled = []
            if node not in self.journaled:
                wal.log_begin(self.txn.txn_id)
                self.journaled.append(node)
        return wal

    def close_journal(self, committed: bool) -> None:
        # Node-id order, as ever (any fixed order would do).
        for node in sorted(self.journaled or (), key=_node_id):
            wal = node.wal
            (wal.log_commit if committed else wal.log_abort)(self.txn.txn_id)


class TransactionExecutor:
    """Executes transactions against the simulated cluster."""

    def __init__(
        self,
        env: "Environment",
        cluster: Cluster,
        router: QueryRouter,
        cost_model: CostModel,
        two_phase_commit: TwoPhaseCommitCoordinator,
        config: Optional[ExecutorConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.router = router
        self.cost_model = cost_model
        self.twopc = two_phase_commit
        self.config = config or ExecutorConfig()
        self._abort_on_stale = self.config.stale_route_policy == "abort"
        self._rng = rng
        if self.config.rep_op_failure_probability > 0 and rng is None:
            raise ValueError("rep-op failure injection requires an rng")
        #: Called with each repartition operation the moment it commits.
        self.on_rep_op_applied: Optional[
            Callable[[RepartitionOperation, Transaction], None]
        ] = None

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def execute(self, txn: Transaction) -> Generator[Event, Any, bool]:
        """Process generator: run ``txn`` to commit or abort.

        Returns ``True`` on commit, ``False`` on abort (the abort reason
        is recorded on the transaction).
        """
        txn.started_at = self.env.now
        txn.status = TxnStatus.RUNNING
        store = self.router.store
        # Pin the map epoch the transaction was admitted under: routing
        # decisions can be validated (and, under the "abort" policy,
        # enforced) against this snapshot for the whole attempt.
        pinned = store.pin()
        routing_epoch = pinned if self._abort_on_stale else None
        attempt = _Attempt(txn, routing_epoch)
        touched = attempt.touched

        try:
            query_partitions = self.router.partitions_for(
                txn.queries, routing_epoch
            )
            all_partitions = query_partitions | self._stage_ops(attempt)

            per_query_work = 0.0
            if txn.queries:
                total = self.cost_model.txn_cost(max(1, len(query_partitions)))
                per_query_work = total / len(txn.queries)

            overhead = self.config.per_txn_overhead_units
            if overhead > 0 and all_partitions:
                overhead_node = self.cluster.node_for_partition(
                    min(all_partitions)
                )
                touched.add(overhead_node)
                yield from overhead_node.work(overhead)
                if txn.is_normal:
                    txn.normal_cost_units += overhead
                else:
                    txn.rep_cost_units += overhead

            for query in txn.queries:
                yield from self._execute_query(attempt, query, per_query_work)

            for op in attempt.ops:
                assert attempt.stage is not None
                # The tuple enters MOVING for the stage's lifetime: its
                # placement is being changed by an uncommitted transaction,
                # and the mark is dropped with the stage on abort.
                attempt.stage.mark_moving(op.key)
                source_lock = _SOURCE_LOCK.get(type(op))
                if source_lock is None:
                    yield from self._execute_delete(attempt, op)
                else:
                    yield from self._copy_tuple(attempt, op, source_lock)
                self._maybe_inject_failure(txn, op)

            # Commit across the partitions actually touched (re-routing
            # after concurrent migrations can differ from the initial
            # estimate in ``all_partitions``).
            commit_partitions = {node.partition_id for node in touched}
            commit_partitions |= all_partitions
            if len(commit_partitions) > 1:
                participants = [
                    self.cluster.node_for_partition(pid)
                    for pid in sorted(commit_partitions)
                ]
                outcome = yield self.env.process(
                    self.twopc.commit(COORDINATOR_NODE_ID, participants)
                )
                if not outcome.committed:
                    if outcome.down:
                        raise NodeDownError(outcome.down[0], txn.txn_id)
                    raise TwoPhaseAbort(
                        txn.txn_id,
                        outcome.no_votes,
                        down=outcome.down,
                        timed_out=outcome.timed_out,
                    )

            # Last down-check before effects become visible: a node may
            # have crashed while this transaction was busy elsewhere (or
            # right after voting YES).  No COMMIT record has been logged
            # yet, so aborting here is still safe on every node.
            for node in touched:
                if node.is_down:
                    first = min(n.node_id for n in touched if n.is_down)
                    raise NodeDownError(first, txn.txn_id)

            # Commit-time stale check: under read_committed a read lock
            # is released early, so a migration may have invalidated the
            # partition the read used while this transaction ran.
            if self._abort_on_stale:
                current = store.current_epoch
                for key, pid in attempt.read_routes:
                    if pid not in current.replicas_of(key):
                        raise StaleRouteAbort(txn.txn_id, key, pid)

            self._apply_commit_effects(attempt)
            attempt.close_journal(committed=True)
            txn.status = TxnStatus.COMMITTED
            txn.finished_at = self.env.now
            return True

        except TransactionAborted as abort:
            self._undo(attempt)
            attempt.close_journal(committed=False)
            txn.status = TxnStatus.ABORTED
            txn.abort_reason = abort.reason
            txn.abort_cause = abort.cause
            txn.finished_at = self.env.now
            return False
        finally:
            # An unpublished stage (abort, crash, injected fault) is
            # dropped cleanly: its MOVING marks vanish and the published
            # map never sees it.
            stage = attempt.stage
            if stage is not None and not stage.published:
                store.discard(stage)
            store.unpin(pinned)
            # Release in node-id order: iterating the set directly would
            # make lock-grant order (and thus the whole run) depend on
            # object identity, breaking determinism across runs.
            nodes = touched if len(touched) < 2 else sorted(touched, key=_node_id)
            for node in nodes:
                node.locks.release_all(txn.txn_id)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _execute_query(
        self, attempt: _Attempt, query: Query, work_units: float
    ) -> Generator[Event, Any, None]:
        txn = attempt.txn
        touched = attempt.touched
        routing_epoch = attempt.routing_epoch
        abort_on_stale = self._abort_on_stale
        router = self.router
        node_for_partition = self.cluster.node_for_partition
        key = query.key
        if query.mode is AccessMode.READ:
            # Route, lock, then re-validate: a concurrent migration may
            # commit between the routing decision and the lock grant, in
            # which case we follow the tuple to its new home (the stale
            # lock is harmless and released at the end) — or, under the
            # "abort" policy, surface the stale route as a retryable
            # abort instead of silently chasing the tuple.
            while True:
                pid = router.route_read(key, routing_epoch)
                node = node_for_partition(pid)
                touched.add(node)
                yield from self._lock(txn, node, key, LockMode.SHARED)
                if pid in router.store.current_epoch.replicas_of(key):
                    break
                if abort_on_stale:
                    raise StaleRouteAbort(txn.txn_id, key, pid)
                router.note_forwarded_read(key)
            if abort_on_stale:
                attempt.read_routes.append((key, pid))
            yield from node.work(work_units)
            txn.normal_cost_units += work_units
            # A crash at the instant the work event fired cannot revoke
            # it; re-check before reading the (possibly wiped) store.
            if node.is_down:
                raise NodeDownError(node.node_id, txn.txn_id)
            node.store.read(key)
            if self.config.isolation == "read_committed":
                # Reads do not hold their lock to commit: the shared lock
                # acted only as a latch ordering the read after any
                # in-flight write of the same tuple.
                node.locks.release(txn.txn_id, key)
            return

        while True:
            replica_pids = router.route_write(key, routing_epoch)
            for pid in replica_pids:
                node = node_for_partition(pid)
                touched.add(node)
                yield from self._lock(txn, node, key, LockMode.EXCLUSIVE)
            current = router.store.current_epoch.replicas_of(key)
            if set(current) <= set(replica_pids):
                replica_pids = current
                break
            if abort_on_stale:
                raise StaleRouteAbort(txn.txn_id, key, replica_pids[0])
        # Work is charged at the primary; replica maintenance is free in
        # the model (the paper evaluates single-replica placements).
        yield from node_for_partition(replica_pids[0]).work(work_units)
        txn.normal_cost_units += work_units
        assert query.value is not None
        for pid in replica_pids:
            node = node_for_partition(pid)
            if node.is_down:
                raise NodeDownError(node.node_id, txn.txn_id)
            record = node.store.get(key)
            attempt.undo.append((node, key, (record.value, record.version)))
            record.write(query.value)
            wal = attempt.wal(node)
            if wal is not None:
                wal.log_write(txn.txn_id, key, query.value)

    # ------------------------------------------------------------------
    # Repartition-operation execution
    # ------------------------------------------------------------------
    def _stage_ops(self, attempt: _Attempt) -> set[PartitionId]:
        """The one staging-time check: report and drop every carried op
        the current epoch shows as already applied, or that can never
        apply (it copies onto a node that has since RETIRED; the planner
        re-plans the tuple).  Opens the stage for the survivors and
        returns the partitions they touch under the current epoch."""
        txn = attempt.txn
        store = self.router.store
        epoch = store.current_epoch
        partitions: set[PartitionId] = set()
        for op in txn.rep_ops:
            if op.applied_in(epoch) or (
                type(op) in _SOURCE_LOCK
                and self.cluster.node_for_partition(op.destination).retired
            ):
                self._report_applied(op, txn)
            else:
                attempt.ops.append(op)
                partitions |= op.partitions_in(epoch)
        if attempt.ops:
            attempt.stage = store.begin_stage(owner=txn.txn_id)
        return partitions

    def _op_work(self, txn: Transaction) -> float:
        """Work units for one repartition op in ``txn``'s context.

        Piggybacked operations (inside a normal carrier) are cheaper:
        the carrier already pays the locking and distributed-commit
        overhead a standalone repartition transaction would incur (§3.4).
        """
        if txn.is_normal:
            return self.cost_model.piggybacked_op_cost()
        return self.cost_model.rep_op_cost

    def _copy_tuple(
        self, attempt: _Attempt, op: Migrate | CreateReplica, lock: LockMode
    ) -> Generator[Event, Any, None]:
        """The copy a ``Migrate`` and a ``CreateReplica`` both start with;
        what becomes of the source copy is a commit effect."""
        txn = attempt.txn
        key = op.key
        store = self.router.store
        dest_node = self.cluster.node_for_partition(op.destination)
        # Lock, then re-validate: the primary may move between lookup and
        # grant.  A stale lap's locks are harmless, released at the end.
        while True:
            source = store.current_epoch.primary_of(key)
            source_node = self.cluster.node_for_partition(source)
            attempt.touched.update((source_node, dest_node))
            yield from self._lock(txn, source_node, key, lock)
            yield from self._lock(txn, dest_node, key, LockMode.EXCLUSIVE)
            if store.current_epoch.primary_of(key) == source:
                break

        half_work = self._op_work(txn) / 2
        yield from source_node.work(half_work)
        txn.rep_cost_units += half_work
        # A crash at the very instant the work event fired cannot revoke
        # it (the event already succeeded), so the resumed process would
        # read a wiped store: re-check before touching volatile state.
        if source_node.is_down:
            raise NodeDownError(source_node.node_id, txn.txn_id)
        record = source_node.store.get(key)
        yield from self.cluster.network.transfer(
            source_node.node_id, dest_node.node_id, record.size_bytes
        )

        yield from dest_node.work(half_work)
        txn.rep_cost_units += half_work
        if dest_node.is_down:
            raise NodeDownError(dest_node.node_id, txn.txn_id)
        if key not in dest_node.store:
            copy = record.copy()
            dest_node.store.insert(copy)
            attempt.undo.append((dest_node, key, None))
            wal = attempt.wal(dest_node)
            if wal is not None:
                wal.log_insert(txn.txn_id, copy)

    def _execute_delete(
        self, attempt: _Attempt, op: DeleteReplica
    ) -> Generator[Event, Any, None]:
        txn = attempt.txn
        node = self.cluster.node_for_partition(op.partition)
        attempt.touched.add(node)
        yield from self._lock(txn, node, op.key, LockMode.EXCLUSIVE)
        work = self._op_work(txn)
        yield from node.work(work)
        txn.rep_cost_units += work
        # The actual removal is deferred to commit.

    def _maybe_inject_failure(
        self, txn: Transaction, op: RepartitionOperation
    ) -> None:
        if self.config.rep_op_failure_probability <= 0:
            return
        assert self._rng is not None
        if self._rng.random() < self.config.rep_op_failure_probability:
            raise InjectedFault(
                txn.txn_id,
                f"injected failure executing {op.kind} of tuple {op.key}",
            )

    # ------------------------------------------------------------------
    # Commit / undo
    # ------------------------------------------------------------------
    def _apply_commit_effects(self, attempt: _Attempt) -> None:
        """Stage each executed operation's map delta, then publish the
        stage as one new epoch (the map change becomes visible to other
        transactions atomically, not operation by operation)."""
        stage = attempt.stage
        for op in attempt.ops:
            assert stage is not None
            key = op.key
            if op.applied_in(stage):
                # The staging-time question, asked of the overlay (which
                # shows earlier ops of this transaction): a concurrent
                # transaction did the op meanwhile — a drain sweep racing
                # the workload plan, a copy onto the same partition.
                pass
            elif isinstance(op, Migrate):
                source = stage.primary_of(key)
                self._drop_copy(attempt, key, source)
                if op.destination in stage.replicas_of(key):
                    # The destination gained a replica concurrently
                    # (workload-plan CreateReplica racing a drain): the
                    # move degenerates to retiring the source copy.
                    stage.remove_replica(key, source)
                else:
                    stage.move(key, source, op.destination)
            elif isinstance(op, CreateReplica):
                stage.add_replica(key, op.destination)
            elif len(stage.replicas_of(key)) > 1:
                self._drop_copy(attempt, key, op.partition)
                stage.remove_replica(key, op.partition)
            # else: a concurrent delete made this the last copy; dropping
            # it would strand the tuple, so the op is abandoned (the
            # record stays resident).
            self._report_applied(op, attempt.txn)
        if stage is not None:
            self.router.store.publish(stage)

    def _drop_copy(
        self, attempt: _Attempt, key: int, partition: PartitionId
    ) -> None:
        node = self.cluster.node_for_partition(partition)
        if key in node.store:
            node.store.delete(key)
            wal = attempt.wal(node)
            if wal is not None:
                wal.log_delete(attempt.txn.txn_id, key)

    def _report_applied(
        self, op: RepartitionOperation, txn: Transaction
    ) -> None:
        if self.on_rep_op_applied is not None:
            self.on_rep_op_applied(op, txn)

    def _undo(self, attempt: _Attempt) -> None:
        for node, key, before in reversed(attempt.undo):
            if before is None:
                if key in node.store:
                    node.store.delete(key)
            else:
                record = node.store.peek(key)
                if record is not None:
                    record.value, record.version = before

    # ------------------------------------------------------------------
    # Locking with timeout
    # ------------------------------------------------------------------
    def _lock(
        self,
        txn: Transaction,
        node: DataNode,
        key: int,
        mode: LockMode,
    ) -> Generator[Event, Any, None]:
        if node.retired:
            # Admission control for elastic scale-in: a transaction
            # reaches a RETIRED node only through a route pinned, or an
            # op staged, before the drain's final epoch published.
            # Abort as a stale route — the retry re-pins, routes to where
            # the drain moved the tuple, and drops the op at staging.
            raise StaleRouteAbort(txn.txn_id, key, node.partition_id)
        if node.is_down:
            raise NodeDownError(node.node_id, txn.txn_id)
        locks = node.locks
        event = locks.acquire(txn.txn_id, key, mode)
        if event is locks.granted:
            return
        if event.triggered:
            if event.failed:
                event.defused = True
                raise event.value
            return
        if self.config.lock_timeout_s is None or (
            not txn.is_normal and txn.priority is Priority.HIGH
        ):
            # The lock-wait timeout is a liveness heuristic for normal
            # transactions; a HIGH repartition transaction (ApplyAll, or
            # one escalated past its migration deadline) would otherwise
            # livelock on a hot tuple under overload — time out, rejoin
            # the back of the FIFO queue, repeat.  Waiting in place is
            # guaranteed progress; the deadlock detector still guards
            # against genuine cycles.
            yield event
            return
        timeout = self.env.timeout(self.config.lock_timeout_s)
        yield self.env.any_of([event, timeout])
        if event.triggered and event.ok:
            return
        node.locks.cancel(txn.txn_id, key)
        raise LockTimeout(txn.txn_id, key, self.config.lock_timeout_s)
