"""A data node: one partition's storage, locks, and processing capacity.

Mirrors the paper's deployment — each EC2 instance runs one PostgreSQL
server holding one data partition.  A node bundles:

* a :class:`~repro.storage.partition_store.PartitionStore` (the data),
* a :class:`~repro.locking.lock_manager.LockManager` (2PL on its tuples),
* a :class:`~repro.sim.resources.WorkServer` (CPU/IO capacity), and
* a connection-limit :class:`~repro.sim.resources.Resource` (the paper
  configures 100 simultaneous PostgreSQL connections per node).

Optionally a *capacity noise* process perturbs the node's service rate
over time, reproducing the cloud-environment capacity fluctuations the
paper's feedback controller is designed to absorb (§3.3).

Crash/restart semantics: :meth:`crash` is legal at any instant,
including under in-flight transactions — pending lock waits and queued
or in-service jobs fail with :class:`~repro.errors.NodeDownError`
(in-service jobs require :meth:`enable_fault_injection` first), the
volatile store and lock table are lost, and the capacity-noise process
pauses.  :meth:`restart` runs the recovery driver: replay the WAL,
checkpoint + truncate it when quiescent, restore the base service rate,
resume capacity noise, and rejoin the cluster.
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import NodeDownError
from ..locking.deadlock import DeadlockDetector
from ..locking.lock_manager import LockManager
from ..sim.events import Event, Interrupt
from ..sim.resources import Resource, WorkServer
from ..storage.partition_store import PartitionStore
from ..types import NodeId, PartitionId

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..storage.wal import WriteAheadLog


class NodeState(enum.Enum):
    """Membership lifecycle of a data node.

    ``JOINING → ACTIVE → DRAINING → RETIRED``, transitions driven only
    by the :class:`~repro.cluster.cluster.Cluster` membership API (the
    repro-lint rule RPR007 enforces this).  A node's crash/restart state
    (:attr:`DataNode.is_down`) is orthogonal: a DRAINING node can crash
    and be restarted mid-drain.
    """

    #: Provisioned and serving as a placement *target*, but not yet
    #: counted as a full member (no resident data initially).
    JOINING = "joining"
    #: Full member: serves reads/writes and is a placement target.
    ACTIVE = "active"
    #: Scheduled for removal: still serves its resident tuples, but mass
    #: migration is moving them off; no new placements land here.
    DRAINING = "draining"
    #: Removed from the serving set: holds no tuples, routes to it abort.
    RETIRED = "retired"


class DataNode:
    """One shared-nothing data node hosting a single partition."""

    def __init__(
        self,
        env: "Environment",
        node_id: NodeId,
        partition_id: PartitionId,
        capacity_units_per_s: float,
        max_connections: int = 100,
        detector: Optional[DeadlockDetector] = None,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.partition_id = partition_id
        self.store = PartitionStore(partition_id)
        self.locks = LockManager(env, detector, name=f"node{node_id}")
        self.server = WorkServer(env, rate=capacity_units_per_s, concurrency=1)
        self.connections = Resource(env, max_connections)
        self.base_rate = float(capacity_units_per_s)
        #: Optional write-ahead log; enabled via :meth:`enable_wal`.
        self.wal: Optional["WriteAheadLog"] = None
        #: Membership lifecycle state.  Mutated only by the cluster's
        #: membership API (:meth:`Cluster.add_node` and friends).
        self.state = NodeState.ACTIVE
        #: Fast-path mirror of ``state is NodeState.RETIRED`` for the
        #: transaction executor's per-lock admission check.
        self.retired = False
        #: ``True`` while crashed (between :meth:`crash` and :meth:`restart`).
        self.is_down = False
        self.crash_count = 0
        self.total_down_time_s = 0.0
        self._down_since: Optional[float] = None
        self._noise_process = None
        self._noise_config: Optional[
            tuple[random.Random, float, float, float]
        ] = None

    def enable_wal(self) -> "WriteAheadLog":
        """Attach a write-ahead log; the executor journals through it."""
        from ..storage.wal import WriteAheadLog

        if self.wal is None:
            self.wal = WriteAheadLog(self.partition_id)
        return self.wal

    def enable_fault_injection(self) -> None:
        """Prepare this node for mid-flight crashes.

        Makes the WAL the mandatory write path (attaching one and
        checkpointing the current store contents so pre-existing data
        survives a crash) and makes the work server interruptible so
        in-service jobs die with the node instead of completing on
        phantom capacity.
        """
        wal = self.enable_wal()
        if not wal.open_transactions:
            wal.log_checkpoint(self.store)
        self.server.make_interruptible()

    # ------------------------------------------------------------------
    # Crash / restart (failure injection, including mid-transaction)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state: store contents and lock table.

        The write-ahead log (if enabled) survives, as durable storage
        would.  Legal under in-flight transactions: every pending lock
        wait and queued job fails with
        :class:`~repro.errors.NodeDownError` immediately, and in-service
        jobs are killed too when :meth:`enable_fault_injection` was
        called.  The capacity-noise process (if any) is paused so a dead
        node's service rate stops fluctuating.
        """
        if self.is_down:
            raise RuntimeError(f"node {self.node_id} is already down")
        self.is_down = True
        self.crash_count += 1
        self._down_since = self.env.now
        self._pause_capacity_noise()
        # Wake everyone parked on this node before discarding the lock
        # table: events inside the old table would otherwise dangle
        # forever and deadlock the simulation.
        self.locks.fail_all_waiters(
            lambda txn_id, _key: NodeDownError(self.node_id, txn_id)
        )
        self.server.fail_all(lambda: NodeDownError(self.node_id))
        self.connections.fail_waiting(lambda: NodeDownError(self.node_id))
        self.store = PartitionStore(self.partition_id)
        self.locks = LockManager(
            self.env, self.locks.detector, name=f"node{self.node_id}"
        )

    def restart(self) -> PartitionStore:
        """Recovery driver: replay the WAL, compact it, rejoin.

        The store is rebuilt from the log (committed effects only);
        when no distributed transaction still has an open BEGIN in the
        log, a fresh checkpoint is taken and older records truncated so
        the log does not grow without bound across crash cycles.  The
        service rate returns to ``base_rate`` and capacity noise, if it
        was running at crash time, resumes.
        """
        if not self.is_down:
            raise RuntimeError(f"node {self.node_id} is not down")
        if self.wal is not None:
            from ..storage.wal import recover

            self.store = recover(self.wal)
            if not self.wal.open_transactions:
                self.wal.log_checkpoint(self.store)
                self.wal.truncate_before_checkpoint()
        self.is_down = False
        if self._down_since is not None:
            self.total_down_time_s += self.env.now - self._down_since
            self._down_since = None
        self.server.rate = self.base_rate
        self._resume_capacity_noise()
        return self.store

    def work(self, units: float) -> Generator[Event, Any, None]:
        """Process generator: consume ``units`` of this node's capacity
        (the server's own generator: no extra frame on every resume)."""
        if self.is_down:
            raise NodeDownError(self.node_id)
        return self.server.work(units)

    # ------------------------------------------------------------------
    # Capacity noise
    # ------------------------------------------------------------------
    def start_capacity_noise(
        self,
        rng: random.Random,
        interval_s: float,
        relative_sigma: float,
        floor_fraction: float = 0.3,
    ) -> None:
        """Perturb the service rate every ``interval_s`` seconds.

        Each tick draws a multiplicative factor from a normal distribution
        centred on 1 with standard deviation ``relative_sigma``, floored at
        ``floor_fraction`` of the base rate so the node never stalls.
        """
        if self._noise_process is not None:
            raise RuntimeError(f"capacity noise already running on {self!r}")
        if interval_s <= 0:
            raise ValueError(f"noise interval must be positive: {interval_s}")
        self._noise_config = (rng, interval_s, relative_sigma, floor_fraction)

        def noise() -> Generator[Event, Any, None]:
            try:
                while True:
                    yield self.env.timeout(interval_s)
                    factor = max(
                        floor_fraction, rng.gauss(1.0, relative_sigma)
                    )
                    self.server.rate = self.base_rate * factor
            except Interrupt:
                return

        self._noise_process = self.env.process(noise())

    def stop_capacity_noise(self) -> None:
        """Stop the noise process and restore the base service rate."""
        self._pause_capacity_noise()
        self._noise_config = None
        self.server.rate = self.base_rate

    def _pause_capacity_noise(self) -> None:
        """Halt noise ticks (node down); the config survives for resume."""
        process = self._noise_process
        self._noise_process = None
        if process is not None and process.is_alive:
            process.interrupt("node down")

    def _resume_capacity_noise(self) -> None:
        if self._noise_config is not None and self._noise_process is None:
            rng, interval_s, sigma, floor = self._noise_config
            self._noise_config = None
            self.start_capacity_noise(rng, interval_s, sigma, floor)

    def __repr__(self) -> str:
        return (
            f"<DataNode {self.node_id} partition={self.partition_id} "
            f"tuples={len(self.store)}>"
        )
