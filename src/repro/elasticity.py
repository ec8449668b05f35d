"""Declarative elasticity: scale-out/in schedules for experiments.

The paper's SOAP framework schedules repartitioning against a fixed node
set; production clusters grow and shrink.  This module drives that
lifecycle the same way :mod:`repro.faults` drives crashes: a declarative
schedule, parsed from the CLI, executed deterministically against the
live cluster.  An :class:`ElasticityScheduleConfig` describes *when*
nodes join and drain, in one of two modes:

* **deterministic events** — explicit ``(time, action, value)`` triples,
  e.g. "add 5 nodes at t=200 s, drain node 7 at t=600 s";
* **load-triggered policy** — queue-depth watermarks: sustained queue
  pressure adds a node, a sustained idle queue drains the highest
  numbered ACTIVE node (classic auto-scaling-group semantics).

The textual format accepted by the CLI's ``--elasticity-schedule``::

    200:add:5,600:drain:7              # deterministic events
    high=50,low=2,check=3,max=8,min=3  # queue-watermark policy

The :class:`ElasticityController` executes a schedule: it walks nodes
through the membership lifecycle via the cluster's membership API,
plans the resulting mass migration (drain: every resident tuple off the
node; scale-out: rebalance onto the joiners), ranks the operations with
SOAP's Algorithm 1, and hands them to
:meth:`~repro.core.repartitioner.Repartitioner.submit`, the one way into
the run's repartition session, so the configured scheduler — ApplyAll,
AfterAll, Feedback, Piggyback, or Hybrid — decides when they run.
Because some schedulers never push work on their own (Piggyback only
rides carriers; AfterAll waits for idleness), the controller also runs
a *pump*: an escalation ladder that submits still-pending migration
transactions at LOW after ``grace_intervals``, promotes them to NORMAL
after ``escalation_intervals`` more, and to HIGH after twice that — the
operator's drain deadline, ensuring every drain completes under every
scheduler.  All decisions happen at interval boundaries from named RNG
streams and epoch snapshots, preserving serial/parallel bit-identical
determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from .cluster.node import DataNode, NodeState
from .core.ranking import chunk_specs
from .core.repartitioner import collector_paused
from .core.session import RepState
from .errors import ConfigError, MembershipError
from .partitioning.elastic import plan_drain, plan_rebalance
from .partitioning.operations import RepartitionOperation
from .partitioning.plan import PartitionPlan
from .sim.events import Event
from .types import Priority

if TYPE_CHECKING:  # pragma: no cover
    from .cluster.cluster import Cluster
    from .core.repartitioner import Repartitioner
    from .metrics.collectors import IntervalRecord
    from .txn.transaction import Transaction
    from .workload.profile import WorkloadProfile

ELASTICITY_ACTIONS = ("add", "drain")


@dataclass(frozen=True)
class ElasticityEvent:
    """One scheduled transition at ``at_s``.

    ``value`` is the number of nodes to add (``action == "add"``) or the
    node id to drain (``action == "drain"``).
    """

    at_s: float
    action: str
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.at_s < math.inf:  # also refuses NaN
            raise ConfigError(
                f"elasticity time must be finite and >= 0: {self.at_s}"
            )
        if self.action not in ELASTICITY_ACTIONS:
            raise ConfigError(
                f"unknown elasticity action {self.action!r}; "
                f"expected one of {ELASTICITY_ACTIONS}"
            )
        if self.action == "add" and self.value < 1:
            raise ConfigError(
                f"must add at least one node, got {self.value}"
            )
        if self.action == "drain" and self.value < 0:
            raise ConfigError(f"bad node id {self.value}")


@dataclass(frozen=True)
class ElasticityScheduleConfig:
    """A full elasticity schedule (events and/or queue-watermark policy)."""

    events: tuple[ElasticityEvent, ...] = ()
    #: Intervals a migration transaction may stay PENDING before the
    #: pump submits it at LOW priority.
    grace_intervals: int = 1
    #: Intervals between pump promotions (LOW → NORMAL → HIGH).
    escalation_intervals: int = 2
    #: Lock-footprint cap per mass-migration transaction; drains are
    #: chunked to this size so one transaction never locks a whole node.
    max_ops_per_txn: int = 64
    #: Queue length above which sustained pressure adds a node; ``None``
    #: disables the load-triggered policy.
    queue_high: Optional[float] = None
    #: Queue length below which a sustained idle queue drains a node.
    queue_low: Optional[float] = None
    #: Consecutive intervals a watermark must hold before acting.
    check_intervals: int = 3
    #: Policy never grows the serving set past this (``None`` = no cap).
    max_nodes: Optional[int] = None
    #: Policy never shrinks the serving set below this.
    min_nodes: int = 1

    def __post_init__(self) -> None:
        if self.grace_intervals < 0:
            raise ConfigError("grace_intervals cannot be negative")
        if self.escalation_intervals < 1:
            raise ConfigError("escalation_intervals must be at least 1")
        if self.max_ops_per_txn < 1:
            raise ConfigError("max_ops_per_txn must be at least 1")
        if (self.queue_high is None) != (self.queue_low is None):
            raise ConfigError(
                "queue_high and queue_low must be given together"
            )
        if self.queue_high is not None:
            assert self.queue_low is not None
            if not 0 <= self.queue_low < self.queue_high < math.inf:
                raise ConfigError(
                    "watermarks must satisfy 0 <= low < high < inf, got "
                    f"low={self.queue_low} high={self.queue_high}"
                )
        if self.check_intervals < 1:
            raise ConfigError("check_intervals must be at least 1")
        if self.min_nodes < 1:
            raise ConfigError("min_nodes must be at least 1")
        if self.max_nodes is not None and self.max_nodes < self.min_nodes:
            raise ConfigError("max_nodes cannot be below min_nodes")

    @property
    def enabled(self) -> bool:
        """Whether this schedule does anything at all."""
        return bool(self.events) or self.queue_high is not None


def parse_elasticity_schedule(text: str) -> ElasticityScheduleConfig:
    """Parse the CLI's ``--elasticity-schedule`` string.

    See the module docstring for the two accepted grammars.  Raises
    :class:`~repro.errors.ConfigError` on malformed input.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty elasticity schedule")
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if any("=" in part for part in parts):
        return _parse_policy(parts, text)
    events = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(
                f"bad elasticity event {part!r}; expected TIME:ACTION:VALUE"
            )
        time_text, action, value_text = fields
        try:
            at_s = float(time_text)
            value = int(value_text)
            # As in the key=value form, no integer past float range.
            float(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(
                f"bad elasticity event {part!r}: {exc}"
            ) from None
        events.append(ElasticityEvent(at_s=at_s, action=action, value=value))
    events.sort(key=lambda e: (e.at_s, e.action, e.value))
    return ElasticityScheduleConfig(events=tuple(events))


def _parse_policy(parts: list[str], text: str) -> ElasticityScheduleConfig:
    known: dict[str, Any] = {
        "high": None, "low": None, "check": 3, "max": None, "min": 1,
        "grace": 1, "escalate": 2, "ops": 64,
    }
    integral = ("check", "max", "min", "grace", "escalate", "ops")
    for part in parts:
        if "=" not in part:
            raise ConfigError(
                f"cannot mix key=value and TIME:ACTION:VALUE forms: {text!r}"
            )
        key, _, value_text = part.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"unknown elasticity-schedule key {key!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"bad value in {part!r}: {exc}") from None
        if key in integral:
            if not value.is_integer():  # also refuses NaN and inf
                raise ConfigError(f"{key} must be a whole number: {part!r}")
            value = int(value)
        known[key] = value
    return ElasticityScheduleConfig(
        queue_high=known["high"],
        queue_low=known["low"],
        check_intervals=known["check"],
        max_nodes=known["max"],
        min_nodes=known["min"],
        grace_intervals=known["grace"],
        escalation_intervals=known["escalate"],
        max_ops_per_txn=known["ops"],
    )


@dataclass
class _Transition:
    """One in-flight membership transition and its migration workload."""

    kind: str  # "scale-out" | "drain"
    node_ids: tuple[int, ...]
    txns: list["Transaction"]
    started_interval: int
    done: bool = field(default=False)


class ElasticityController:
    """Executes an :class:`ElasticityScheduleConfig` against a system.

    Owns no placement state itself: membership moves through the
    cluster's API, data moves through SOAP-ranked repartition
    transactions in the one shared session, and the configured scheduler
    keeps deciding *when* — the controller only plans, tracks, and pumps.
    """

    def __init__(
        self,
        cluster: "Cluster",
        repartitioner: "Repartitioner",
        profile: "WorkloadProfile",
        schedule: ElasticityScheduleConfig,
    ) -> None:
        self.cluster = cluster
        self.repartitioner = repartitioner
        self.profile = profile
        self.schedule = schedule
        self.env = repartitioner.env
        self.metrics = repartitioner.metrics
        self.store = repartitioner.router.store
        self._started = False
        self._intervals = 0
        self._transitions: list[_Transition] = []
        self._high_streak = 0
        self._low_streak = 0
        # Counters for reports and tests.
        self.nodes_added = 0
        self.drains_started = 0
        self.nodes_retired = 0
        self.migration_ops_planned = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the schedule process and interval hook (idempotent)."""
        if self._started:
            return
        self._started = True
        self.metrics.interval_observers.append(self._on_interval)
        if self.schedule.events:
            self.env.process(self._run_events())

    @property
    def quiescent(self) -> bool:
        """No transition still migrating or awaiting retirement."""
        return all(t.done for t in self._transitions)

    # ------------------------------------------------------------------
    # Deterministic events
    # ------------------------------------------------------------------
    def _run_events(self) -> Generator[Event, Any, None]:
        for event in self.schedule.events:
            delay = event.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if event.action == "add":
                self.scale_out(event.value)
            else:
                self.drain(event.value)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def scale_out(self, count: int) -> list[DataNode]:
        """Add ``count`` JOINING nodes and plan rebalancing onto them."""
        new_nodes = [self.cluster.add_node() for _ in range(count)]
        self.nodes_added += count
        plan, ops = plan_rebalance(
            self.store.current_epoch,
            [node.partition_id for node in new_nodes],
            self.cluster.placement_partition_ids,
            self.profile,
        )
        txns = self._deploy_ops(plan, ops)
        self._transitions.append(
            _Transition(
                kind="scale-out",
                node_ids=tuple(node.node_id for node in new_nodes),
                txns=txns,
                started_interval=self._intervals,
            )
        )
        return new_nodes

    def drain(self, node_id: int) -> None:
        """Begin draining ``node_id``: plan moving every resident tuple."""
        node = self.cluster.node(node_id)
        if node.state is not NodeState.ACTIVE:
            # Draining a JOINING/DRAINING/RETIRED node is a schedule
            # mistake, not a crash-worthy condition mid-experiment.
            self.skipped += 1
            return
        self.cluster.begin_drain(node_id)
        self.drains_started += 1
        plan, ops = plan_drain(
            self.store.current_epoch,
            [node.partition_id],
            self.cluster.placement_partition_ids,
        )
        txns = self._deploy_ops(plan, ops)
        self._transitions.append(
            _Transition(
                kind="drain",
                node_ids=(node_id,),
                txns=txns,
                started_interval=self._intervals,
            )
        )

    def _deploy_ops(
        self, plan: PartitionPlan, ops: list[RepartitionOperation]
    ) -> list["Transaction"]:
        """Rank, chunk, and submit migration operations (SOAP pipeline)."""
        if not ops:
            return []
        self.migration_ops_planned += len(ops)
        with collector_paused():
            specs = self.repartitioner.rank_plan(
                plan, self.profile, operations=ops
            )
            return self.repartitioner.submit(
                chunk_specs(specs, self.schedule.max_ops_per_txn)
            )

    # ------------------------------------------------------------------
    # Interval hook: policy, pump, completion
    # ------------------------------------------------------------------
    def _on_interval(self, record: "IntervalRecord") -> None:
        self._intervals += 1
        if self.schedule.queue_high is not None:
            self._apply_policy(record)
        for transition in self._transitions:
            if not transition.done:
                self._pump(transition)
                self._finalise(transition)

    def _apply_policy(self, record: "IntervalRecord") -> None:
        schedule = self.schedule
        assert schedule.queue_low is not None
        queue = record.queue_length_end
        if queue > schedule.queue_high:
            self._high_streak += 1
            self._low_streak = 0
        elif queue < schedule.queue_low:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
        serving = self.cluster.nodes_in(NodeState.ACTIVE, NodeState.JOINING)
        if self._high_streak >= schedule.check_intervals:
            self._high_streak = 0
            if (
                schedule.max_nodes is None
                or len(serving) < schedule.max_nodes
            ):
                self.scale_out(1)
        elif self._low_streak >= schedule.check_intervals:
            self._low_streak = 0
            active = self.cluster.nodes_in(NodeState.ACTIVE)
            if len(serving) > schedule.min_nodes and len(active) > 1:
                self.drain(active[-1].node_id)

    def _pump(self, transition: _Transition) -> None:
        """Escalation ladder: the operator's migration deadline.

        Schedulers remain in charge up to ``grace_intervals``; after
        that, still-pending migration transactions enter the queue at
        LOW, then climb to NORMAL and HIGH — so a drain completes even
        under schedulers that never submit on their own (Piggyback) or
        find no idle time (AfterAll under load).
        """
        if not transition.txns:
            return
        session = self.repartitioner.session
        assert session is not None
        schedule = self.schedule
        age = self._intervals - transition.started_interval
        for txn in transition.txns:
            state = session.state_of(txn.txn_id)
            if state is RepState.PENDING:
                if age >= schedule.grace_intervals:
                    session.submit(txn, Priority.LOW)
            elif state is RepState.QUEUED:
                ladder = schedule.grace_intervals + schedule.escalation_intervals
                if (
                    age >= ladder + schedule.escalation_intervals
                    and txn.priority is not Priority.HIGH
                ):
                    session.promote(txn, Priority.HIGH)
                elif age >= ladder and txn.priority is Priority.LOW:
                    session.promote(txn, Priority.NORMAL)

    def _migrations_done(self, transition: _Transition) -> bool:
        session = self.repartitioner.session
        if not transition.txns:
            return True
        assert session is not None
        return all(
            session.state_of(txn.txn_id) is RepState.DONE
            for txn in transition.txns
        )

    def _finalise(self, transition: _Transition) -> None:
        """Complete lifecycle transitions whose migrations finished."""
        if not self._migrations_done(transition):
            return
        if transition.kind == "scale-out":
            for node_id in transition.node_ids:
                if self.cluster.state_of(node_id) is NodeState.JOINING:
                    self.cluster.activate(node_id)
            transition.done = True
            return
        # Drain: retire each node once truly empty; stragglers that
        # landed after planning (e.g. a workload-driven migration
        # targeting the partition, or drain ops requeued by a crash)
        # get a follow-up sweep.
        all_retired = True
        for node_id in transition.node_ids:
            node = self.cluster.node(node_id)
            if node.state is NodeState.RETIRED:
                continue
            if node.state is not NodeState.DRAINING:  # pragma: no cover
                raise MembershipError(
                    f"drain transition found node {node_id} in state "
                    f"{node.state.value}"
                )
            mapped = self.store.partition_sizes().get(node.partition_id, 0)
            if mapped == 0 and not node.is_down and len(node.store) == 0:
                self.cluster.retire(node_id)
                self.nodes_retired += 1
                continue
            all_retired = False
            if mapped > 0 and not node.is_down:
                plan, ops = plan_drain(
                    self.store.current_epoch,
                    [node.partition_id],
                    self.cluster.placement_partition_ids,
                )
                transition.txns.extend(self._deploy_ops(plan, ops))
        transition.done = all_retired
