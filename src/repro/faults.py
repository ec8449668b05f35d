"""Declarative fault injection: crash/restart schedules for experiments.

The paper motivates online repartitioning with the hostility of cloud
environments (§3.3); this module lets an experiment subject the cluster
to that hostility on purpose.  A :class:`FaultScheduleConfig` describes
*when* data nodes crash and restart, in one of two modes:

* **deterministic events** — explicit ``(time, action, node)`` triples,
  e.g. "crash node 2 at t=120 s, restart it at t=180 s";
* **stochastic MTBF/MTTR** — every node independently alternates
  exponentially-distributed up-times (mean ``mtbf_s``) and down-times
  (mean ``mttr_s``), the classic availability model.

Both modes are driven entirely by the experiment's named RNG streams,
so a given seed + schedule reproduces the same fault sequence in serial
and parallel runs alike.  The textual format accepted by the CLI's
``--fault-schedule`` flag::

    120:crash:2,180:restart:2          # deterministic events
    mtbf=300,mttr=30                   # stochastic, whole run
    mtbf=300,mttr=30,start=100,end=900 # stochastic, windowed

The :class:`FaultInjector` executes a schedule against a live cluster:
it calls :meth:`DataNode.crash` / :meth:`DataNode.restart` at the
scheduled instants, refuses to take down the last live node (a dead
cluster measures nothing), and notifies the metrics collector so
degradation accounting (``degraded_s``, goodput-during-degradation)
lines up with the injected faults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import ConfigError
from .sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .cluster.cluster import Cluster
    from .cluster.node import DataNode
    from .metrics.collectors import MetricsCollector
    from .sim.environment import Environment

FAULT_ACTIONS = ("crash", "restart")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled action: crash or restart ``node_id`` at ``at_s``."""

    at_s: float
    action: str
    node_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.at_s < math.inf:  # also refuses NaN
            raise ConfigError(
                f"fault time must be finite and >= 0: {self.at_s}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ConfigError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.node_id < 0:
            raise ConfigError(f"bad node id {self.node_id}")


@dataclass(frozen=True)
class FaultScheduleConfig:
    """A full fault schedule (deterministic events and/or MTBF/MTTR)."""

    events: tuple[FaultEvent, ...] = ()
    #: Mean up-time between failures per node (exponential); ``None``
    #: disables the stochastic mode.
    mtbf_s: Optional[float] = None
    #: Mean repair (down) time per node (exponential).
    mttr_s: Optional[float] = None
    #: Stochastic faults only start after this simulated time.
    start_s: float = 0.0
    #: Stochastic faults stop after this time (``None`` = run horizon).
    end_s: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.mtbf_s is None) != (self.mttr_s is None):
            raise ConfigError("mtbf and mttr must be given together")
        # Chained comparisons so NaN (every comparison false) is refused.
        if self.mtbf_s is not None and not 0 < self.mtbf_s < math.inf:
            raise ConfigError(f"mtbf must be positive, finite: {self.mtbf_s}")
        if self.mttr_s is not None and not 0 < self.mttr_s < math.inf:
            raise ConfigError(f"mttr must be positive, finite: {self.mttr_s}")
        if not 0 <= self.start_s < math.inf:
            raise ConfigError("fault window start must be finite and >= 0")
        if self.end_s is not None and not (
            self.start_s < self.end_s < math.inf
        ):
            raise ConfigError(
                "fault window must end, at a finite time, after it starts"
            )

    @property
    def enabled(self) -> bool:
        """Whether this schedule injects anything at all."""
        return bool(self.events) or self.mtbf_s is not None


def parse_fault_schedule(text: str) -> FaultScheduleConfig:
    """Parse the CLI's ``--fault-schedule`` string.

    See the module docstring for the two accepted grammars.  Raises
    :class:`~repro.errors.ConfigError` on malformed input.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty fault schedule")
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if any("=" in part for part in parts):
        return _parse_stochastic(parts, text)
    events = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(
                f"bad fault event {part!r}; expected TIME:ACTION:NODE"
            )
        time_text, action, node_text = fields
        try:
            at_s = float(time_text)
            node_id = int(node_text)
        except ValueError as exc:
            raise ConfigError(f"bad fault event {part!r}: {exc}") from None
        events.append(FaultEvent(at_s=at_s, action=action, node_id=node_id))
    events.sort(key=lambda e: (e.at_s, e.node_id, e.action))
    return FaultScheduleConfig(events=tuple(events))


def _parse_stochastic(parts: list[str], text: str) -> FaultScheduleConfig:
    known = {"mtbf": None, "mttr": None, "start": 0.0, "end": None}
    for part in parts:
        if "=" not in part:
            raise ConfigError(
                f"cannot mix key=value and TIME:ACTION:NODE forms: {text!r}"
            )
        key, _, value_text = part.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"unknown fault-schedule key {key!r}")
        try:
            known[key] = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"bad value in {part!r}: {exc}") from None
    return FaultScheduleConfig(
        mtbf_s=known["mtbf"],
        mttr_s=known["mttr"],
        start_s=known["start"] or 0.0,
        end_s=known["end"],
    )


class FaultInjector:
    """Executes a :class:`FaultScheduleConfig` against a live cluster."""

    def __init__(
        self,
        env: "Environment",
        cluster: "Cluster",
        schedule: FaultScheduleConfig,
        rng: Optional[random.Random] = None,
        metrics: Optional["MetricsCollector"] = None,
    ) -> None:
        if schedule.mtbf_s is not None and rng is None:
            raise ConfigError("stochastic fault schedules require an rng")
        self.env = env
        self.cluster = cluster
        self.schedule = schedule
        self.metrics = metrics
        self._rng = rng
        self._started = False
        self.crashes = 0
        self.restarts = 0
        #: Scheduled actions that could not be applied (crash of an
        #: already-down or sole-surviving node, restart of a live node).
        self.skipped = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the injection processes (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.schedule.events:
            self.env.process(self._run_events())
        if self.schedule.mtbf_s is not None:
            for node in self.cluster.nodes:
                self.watch_node(node)

    def watch_node(self, node: "DataNode") -> None:
        """Subject one node to the stochastic MTBF/MTTR lifecycle.

        Called for each seed node by :meth:`start` and for nodes added
        mid-run by the elasticity layer, so late joiners face the same
        hostility as founding members.  No-op for deterministic-only
        schedules or before :meth:`start`.
        """
        if self._started and self.schedule.mtbf_s is not None:
            self.env.process(self._node_lifecycle(node))

    # ------------------------------------------------------------------
    # Crash / restart primitives (shared by both modes)
    # ------------------------------------------------------------------
    def _live_count(self) -> int:
        """Up nodes that are full cluster members.

        DRAINING and RETIRED nodes are deliberately *not* counted: they
        are on their way out, so the "never kill the last live node"
        guard must not treat them as the node keeping the cluster alive
        — composing a drain schedule with a crash schedule could
        otherwise leave only departing members serving.
        """
        from .cluster.node import NodeState

        return sum(
            1
            for node in self.cluster.nodes
            if not node.is_down
            and node.state in (NodeState.ACTIVE, NodeState.JOINING)
        )

    def _crash(self, node: "DataNode") -> bool:
        if node.retired:
            # A retired node holds nothing and serves nothing; crashing
            # it would only skew the degradation accounting.
            self.skipped += 1
            return False
        if node.is_down or self._live_count() <= 1:
            # Never take down the last live node: a fully dead cluster
            # deadlocks every transaction and measures nothing.
            self.skipped += 1
            return False
        node.crash()
        self.crashes += 1
        if self.metrics is not None:
            self.metrics.note_node_down(node.node_id)
        return True

    def _restart(self, node: "DataNode") -> bool:
        if not node.is_down:
            self.skipped += 1
            return False
        node.restart()
        self.restarts += 1
        if self.metrics is not None:
            self.metrics.note_node_up(node.node_id)
        return True

    # ------------------------------------------------------------------
    # Deterministic events
    # ------------------------------------------------------------------
    def _run_events(self) -> Generator[Event, Any, None]:
        for event in self.schedule.events:
            delay = event.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            node = self.cluster.node(event.node_id)
            if event.action == "crash":
                self._crash(node)
            else:
                self._restart(node)

    # ------------------------------------------------------------------
    # Stochastic MTBF/MTTR per-node lifecycle
    # ------------------------------------------------------------------
    def _node_lifecycle(self, node: "DataNode") -> Generator[Event, Any, None]:
        assert self._rng is not None
        schedule = self.schedule
        if schedule.start_s > self.env.now:
            yield self.env.timeout(schedule.start_s - self.env.now)
        while True:
            up_for = self._rng.expovariate(1.0 / schedule.mtbf_s)
            yield self.env.timeout(up_for)
            if schedule.end_s is not None and self.env.now >= schedule.end_s:
                return
            if not self._crash(node):
                continue
            down_for = self._rng.expovariate(1.0 / schedule.mttr_s)
            yield self.env.timeout(down_for)
            self._restart(node)
