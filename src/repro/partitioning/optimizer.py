"""The cost-based repartition optimizer (paper §2.2).

The optimizer periodically inspects the workload history, estimates near-
future performance, and — when the estimate falls below a threshold —
derives a repartition plan.  The planning strategy here is the
collocation heuristic underlying Schism-style partitioners specialised to
the paper's workload: for every transaction type whose tuples are spread
over several partitions, pick a single target partition (preferring the
partition already holding most of its tuples, tie-broken toward the
least-loaded partition) and collocate the type's tuples there.

Load balance is maintained by tracking the frequency-weighted work each
partition will carry under the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import ConfigError
from ..routing.epoch import MapView
from ..types import PartitionId
from .cost_model import CostModel
from .plan import PartitionPlan



if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workload.profile import TransactionType, WorkloadProfile

@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for the collocation optimizer."""

    #: Re-plan is triggered when estimated utilisation exceeds this.
    utilisation_threshold: float = 0.9


class RepartitionOptimizer:
    """Derives collocation plans and decides when repartitioning is due."""

    def __init__(
        self,
        cost_model: CostModel,
        partitions: Sequence[PartitionId],
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        if not partitions:
            raise ConfigError("optimizer needs at least one partition")
        self.cost_model = cost_model
        self.partitions = list(partitions)
        self.config = config or OptimizerConfig()

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def should_repartition(
        self,
        arrival_rate_txn_per_s: float,
        mean_cost: float,
        capacity_units_per_s: float,
    ) -> bool:
        """Whether estimated utilisation breaches the threshold.

        ``mean_cost`` is the frequency-weighted mean cost per
        transaction under the current map
        (:meth:`CostModel.expected_cost_per_txn`, or the trigger loop's
        incrementally cached equivalent).
        """
        if capacity_units_per_s <= 0:
            raise ConfigError("capacity must be positive")
        utilisation = arrival_rate_txn_per_s * mean_cost / capacity_units_per_s
        return utilisation > self.config.utilisation_threshold

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def derive_plan(
        self,
        profile: WorkloadProfile,
        current: MapView,
        types_to_fix: Optional[Sequence[TransactionType]] = None,
    ) -> PartitionPlan:
        """Collocate each (selected) type's tuples on one partition.

        Types are processed hottest-first so the most beneficial
        placements get first pick of partitions; keys claimed by a hotter
        type are not reassigned by a colder one.
        """
        plan = PartitionPlan()
        load: dict[PartitionId, float] = {p: 0.0 for p in self.partitions}

        # Seed loads with what is already resident.
        index = profile.key_index()
        for ttype in profile.types:
            home = self._current_home(ttype, current)
            load[home] = load.get(home, 0.0) + ttype.frequency

        candidates = list(types_to_fix) if types_to_fix is not None else list(
            profile.types
        )
        candidates.sort(key=lambda t: (-t.frequency, t.type_id))

        claimed: set[int] = set()
        for ttype in candidates:
            keys = [k for k in ttype.keys if k not in claimed]
            if not keys:
                continue
            partitions_now = {current.primary_of(k) for k in ttype.keys}
            if len(partitions_now) == 1:
                continue  # already collocated, nothing to plan
            target = self._choose_target(ttype, current, load)
            for key in ttype.keys:
                plan.assign(key, target)
                claimed.add(key)
            # Update load estimate: the type now runs on its target.
            previous_home = self._current_home(ttype, current)
            load[previous_home] -= ttype.frequency
            load[target] += ttype.frequency
            # Types sharing keys with this one are constrained; skip them
            # by claiming their keys is sufficient (handled above).
            for key in ttype.keys:
                for other in index.get(key, ()):  # pragma: no branch
                    if other.type_id != ttype.type_id:
                        claimed.update(other.keys)
        return plan

    def _current_home(
        self, ttype: TransactionType, current: MapView
    ) -> PartitionId:
        """The partition carrying the type's work now (majority partition)."""
        counts: dict[PartitionId, int] = {}
        for key in ttype.keys:
            pid = current.primary_of(key)
            counts[pid] = counts.get(pid, 0) + 1
        return min(counts, key=lambda p: (-counts[p], p))

    def _choose_target(
        self,
        ttype: TransactionType,
        current: MapView,
        load: dict[PartitionId, float],
    ) -> PartitionId:
        """Pick the collocation target for one type.

        Prefer the partition already holding the most of the type's
        tuples (fewest migrations); break ties toward the least-loaded
        partition, then by id for determinism.
        """
        counts: dict[PartitionId, int] = {p: 0 for p in self.partitions}
        for key in ttype.keys:
            pid = current.primary_of(key)
            if pid in counts:
                counts[pid] += 1
        return min(
            self.partitions,
            key=lambda p: (-counts[p], load.get(p, 0.0), p),
        )
