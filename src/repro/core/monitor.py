"""Workload-history monitoring and the automatic repartition trigger.

Paper §2.2: the repartitioner's optimizer "periodically extracts the
frequency of transactions and their visiting data partitions from the
workload history, and then estimates the system throughput and latency
in the near future based on the history.  If the estimated system
performance is under a predefined threshold, the optimizer will derive
a repartition plan."

:class:`WorkloadMonitor` implements the history side: it observes every
finished transaction (type id, key set, distributed or not), maintains
a sliding window of per-type frequencies, and can emit an *observed*
:class:`~repro.workload.profile.WorkloadProfile` — the input the
optimizer and Algorithm 1 need, derived from measurement instead of
ground truth.

:class:`AutoRepartitioner` closes the loop: every interval it estimates
utilisation from the observed history and, when the optimizer's
threshold is breached and no repartitioning is in progress, derives a
plan and submits it to the repartitioner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..metrics.collectors import IntervalRecord, MetricsCollector
from ..partitioning.cost_model import CostModel
from ..partitioning.optimizer import RepartitionOptimizer
from ..routing.epoch import PartitionMapStore
from ..txn.transaction import Transaction
from ..types import TupleKey
from ..workload.profile import TransactionType, WorkloadProfile
from .repartitioner import Repartitioner, collector_paused

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


@dataclass(slots=True)
class _TypeStats:
    keys: tuple[TupleKey, ...]
    arrivals: int = 0


class WorkloadMonitor:
    """Sliding-window transaction-history tracker.

    Call :meth:`observe` for every submitted normal transaction (wire it
    to the TM's scheduler hook or the arrival process).  The window
    holds the last ``window_intervals`` intervals of observations.

    Window-wide aggregates (:meth:`observed_profile`,
    :meth:`observed_rate_txn_per_s`) are maintained incrementally as
    intervals roll in and out of the window — O(types changed in the
    rolled interval) per roll instead of a full window rescan per query,
    which matters once the production presets push the window to tens of
    thousands of types.
    """

    def __init__(
        self,
        env: "Environment",
        interval_s: float = 20.0,
        window_intervals: int = 10,
        table: str = "accounts",
    ) -> None:
        if window_intervals < 1:
            raise ValueError("window must span at least one interval")
        self.env = env
        self.interval_s = interval_s
        self.window_intervals = window_intervals
        self.table = table
        self._current: dict[int, _TypeStats] = {}
        self._window: deque[dict[int, _TypeStats]] = deque(
            maxlen=window_intervals
        )
        #: Per-type aggregates over the *window* (not the open interval),
        #: kept in step with every roll.  A type's ``keys`` mirror the
        #: oldest window interval containing it, matching what a full
        #: oldest-to-newest merge would produce.
        self._merged: dict[int, _TypeStats] = {}
        self._window_arrivals = 0
        self._seen_txn_ids: set[int] = set()
        self._current_start = env.now
        self.total_observed = 0
        self._roller = env.process(self._roll_loop())

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, txn: Transaction) -> None:
        """Record one normal transaction arrival.

        A transaction is counted once, however many times it is
        resubmitted after aborts — the history tracks client demand,
        not retry amplification.
        """
        if not txn.is_normal or txn.type_id is None:
            return
        if txn.txn_id in self._seen_txn_ids:
            return
        self._maybe_roll()
        self._seen_txn_ids.add(txn.txn_id)
        keys = tuple(sorted(q.key for q in txn.queries))
        stats = self._current.get(txn.type_id)
        if stats is None:
            self._current[txn.type_id] = _TypeStats(keys=keys, arrivals=1)
        else:
            stats.arrivals += 1
        self.total_observed += 1

    def _maybe_roll(self) -> None:
        """Close buckets by *timestamp*, so an observation landing exactly
        on a boundary counts toward the new interval regardless of event
        ordering at that instant."""
        while self.env.now >= self._current_start + self.interval_s:
            if len(self._window) == self.window_intervals:
                self._retire(self._window.popleft())
            self._window.append(self._current)
            for type_id, stats in self._current.items():
                acc = self._merged.get(type_id)
                if acc is None:
                    self._merged[type_id] = _TypeStats(
                        keys=stats.keys, arrivals=stats.arrivals
                    )
                else:
                    acc.arrivals += stats.arrivals
                self._window_arrivals += stats.arrivals
            self._current = {}
            self._current_start += self.interval_s

    def _retire(self, evicted: dict[int, _TypeStats]) -> None:
        """Subtract an interval leaving the window from the aggregates."""
        for type_id, stats in evicted.items():
            acc = self._merged[type_id]
            acc.arrivals -= stats.arrivals
            self._window_arrivals -= stats.arrivals
            if acc.arrivals <= 0:
                del self._merged[type_id]
            elif acc.keys == stats.keys:
                # The evicted interval defined this type's keys; adopt
                # them from the now-oldest interval still holding it
                # (scan is O(window), only for types the roll changed).
                for interval in self._window:
                    remaining = interval.get(type_id)
                    if remaining is not None:
                        acc.keys = remaining.keys
                        break

    def _roll_loop(self):
        while True:
            yield self.env.timeout(self.interval_s)
            self._maybe_roll()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def observed_rate_txn_per_s(self) -> float:
        """Mean arrival rate over the window (txn/s)."""
        if not self._window:
            return 0.0
        return self._window_arrivals / (len(self._window) * self.interval_s)

    def observed_profile(self, min_arrivals: int = 1) -> WorkloadProfile:
        """The workload profile as measured over the window.

        Types seen fewer than ``min_arrivals`` times are dropped — the
        optimizer should not chase noise.
        """
        types = [
            TransactionType(
                type_id=type_id,
                keys=stats.keys,
                frequency=float(stats.arrivals),
            )
            for type_id, stats in sorted(self._merged.items())
            if stats.arrivals >= min_arrivals
        ]
        return WorkloadProfile(table=self.table, types=types)


class TypeCostCache:
    """Per-type ``C_i(O)`` cache invalidated by the map store's delta log.

    ``C_i(O)`` is a pure function of a type's key set and the current
    placement of those keys, so a cached value stays exact until one of
    the keys appears in a published epoch delta.  The cache tracks the
    store's epoch id as a watermark and, on each query, invalidates only
    the types whose keys were touched by transitions newer than the
    watermark — O(changed keys) per interval instead of re-costing every
    type.  If the needed transitions were trimmed from the delta log the
    whole cache is dropped (correctness over cleverness).

    :meth:`mean_cost` reproduces
    :meth:`~repro.partitioning.cost_model.CostModel.expected_cost_per_txn`
    with the identical accumulation order, so the trigger's utilisation
    estimate is bit-identical to the uncached implementation.
    """

    __slots__ = ("cost_model", "store", "_costs", "_types_by_key",
                 "_watermark", "hits", "misses")

    def __init__(
        self, cost_model: "CostModel", store: "PartitionMapStore"
    ) -> None:
        self.cost_model = cost_model
        self.store = store
        self._costs: dict[int, tuple[tuple[TupleKey, ...], float]] = {}
        self._types_by_key: dict[TupleKey, set[int]] = {}
        self._watermark = store.epoch_id
        self.hits = 0
        self.misses = 0

    def _invalidate_stale(self) -> None:
        store = self.store
        if store.epoch_id == self._watermark:
            return
        log = store.delta_log()
        first_needed = self._watermark + 1
        if not log or first_needed < log[0].epoch_id:
            # The transitions we would need to diff against were trimmed;
            # drop everything rather than risk serving a stale cost.
            self._costs.clear()
            self._types_by_key.clear()
        else:
            for transition in log[first_needed - log[0].epoch_id:]:
                for delta in transition.deltas:
                    for type_id in self._types_by_key.pop(delta.key, ()):
                        self._costs.pop(type_id, None)
        self._watermark = store.epoch_id

    def mean_cost(self, types: Iterable[TransactionType]) -> float:
        """Frequency-weighted mean cost under the store's live map.

        Same float operations in the same order as
        ``CostModel.expected_cost_per_txn(types, store.current_epoch)``.
        """
        self._invalidate_stale()
        view = self.store.current_epoch
        cost_model = self.cost_model
        costs = self._costs
        total_freq = 0.0
        total_cost = 0.0
        for ttype in types:
            entry = costs.get(ttype.type_id)
            if entry is not None and entry[0] == ttype.keys:
                cost = entry[1]
                self.hits += 1
            else:
                cost = cost_model.cost_under_map(ttype.keys, view)
                costs[ttype.type_id] = (ttype.keys, cost)
                for key in ttype.keys:
                    self._types_by_key.setdefault(key, set()).add(
                        ttype.type_id
                    )
                self.misses += 1
            total_freq += ttype.frequency
            total_cost += ttype.frequency * cost
        if total_freq == 0:
            return 0.0
        return total_cost / total_freq


@dataclass(frozen=True)
class AutoRepartitionerConfig:
    """Trigger policy for the closed loop."""

    #: Minimum observed arrivals for a type to be planned around.
    min_arrivals: int = 2
    #: Cool-down: intervals to wait after a session completes before
    #: another plan may be derived.
    cooldown_intervals: int = 3


class AutoRepartitioner:
    """The fully closed loop: monitor → trigger → plan → submit."""

    def __init__(
        self,
        repartitioner: Repartitioner,
        monitor: WorkloadMonitor,
        optimizer: RepartitionOptimizer,
        metrics: MetricsCollector,
        capacity_units_per_s: float,
        config: Optional[AutoRepartitionerConfig] = None,
    ) -> None:
        self.repartitioner = repartitioner
        self.monitor = monitor
        self.optimizer = optimizer
        self.capacity_units_per_s = capacity_units_per_s
        self.config = config or AutoRepartitionerConfig()
        self.plans_submitted = 0
        self._cooldown = 0
        self._cost_cache = TypeCostCache(
            repartitioner.cost_model, repartitioner.router.store
        )
        metrics.interval_observers.append(self._on_interval)

    def _on_interval(self, record: IntervalRecord) -> None:
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        session = self.repartitioner.session
        if session is not None and not session.is_complete:
            return
        profile = self.monitor.observed_profile(
            min_arrivals=self.config.min_arrivals
        )
        if not profile.types:
            return
        rate = self.monitor.observed_rate_txn_per_s()
        pmap = self.repartitioner.router.store.current_epoch
        mean_cost = self._cost_cache.mean_cost(profile.types)
        if not self.optimizer.should_repartition(
            rate, mean_cost, self.capacity_units_per_s
        ):
            return
        with collector_paused():
            plan = self.optimizer.derive_plan(profile, pmap)
            specs = self.repartitioner.rank_plan(plan, profile)
            if not specs:
                return
            self.repartitioner.submit(specs)
        self.plans_submitted += 1
        self._cooldown = self.config.cooldown_intervals
