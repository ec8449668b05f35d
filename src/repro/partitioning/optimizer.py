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
from ..types import PartitionId, TupleKey
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
        placements get first pick of partitions; a type all of whose
        keys were claimed by hotter types is not planned.
        ``types_to_fix`` selects among ``profile``'s types.
        """
        plan = PartitionPlan()
        assignment = plan.assignment
        load: dict[PartitionId, float] = {p: 0.0 for p in self.partitions}

        # Seed loads with what is already resident.  This pass is the
        # one placement resolve per key: every later step reads a type's
        # per-partition key counts, which live until the plan is returned.
        # It also indexes the keys two or more types share (generated
        # workloads share none), the only keys that constrain below.
        counts_of: dict[int, dict[PartitionId, int]] = {}
        first: dict[TupleKey, TransactionType] = {}
        shared: dict[TupleKey, list[TransactionType]] = {}
        for ttype in profile.types:
            counts = counts_of[ttype.type_id] = _key_counts(ttype, current)
            home = _majority(counts)
            load[home] = load.get(home, 0.0) + ttype.frequency
            for key in ttype.keys:
                other = first.setdefault(key, ttype)
                if other is not ttype:
                    shared.setdefault(key, [other]).append(ttype)

        candidates = list(types_to_fix) if types_to_fix is not None else list(
            profile.types
        )
        candidates.sort(key=lambda t: (-t.frequency, t.type_id))

        placement = frozenset(self.partitions)
        claimed: set[int] = set()
        for ttype in candidates:
            if claimed.issuperset(ttype.keys):
                continue
            counts = counts_of[ttype.type_id]
            if len(counts) == 1:
                continue  # already collocated, nothing to plan
            target = self._choose_target(counts, load, placement)
            for key in ttype.keys:
                assignment[key] = target
            claimed.update(ttype.keys)
            # Update load estimate: the type now runs on its target.
            load[_majority(counts)] -= ttype.frequency
            load[target] += ttype.frequency
            # Types sharing keys with this one are constrained; skip them
            # by claiming their keys is sufficient (handled above).
            for key in ttype.keys:
                for other in shared.get(key, ()):
                    if other.type_id != ttype.type_id:
                        claimed.update(other.keys)
        return plan

    def _choose_target(
        self,
        counts: dict[PartitionId, int],
        load: dict[PartitionId, float],
        placement: frozenset[PartitionId],
    ) -> PartitionId:
        """Pick the collocation target for a type holding ``counts``.

        Prefer the partition already holding the most of the type's
        tuples (fewest migrations); break ties toward the least-loaded
        partition, then by id for determinism.  Only a placement
        partition holding one of the tuples can win that order, so only
        those are ranked; when there is none (every tuple sits on a
        draining node) the least-loaded placement partition is taken.
        """
        held = [
            (-n, load[pid], pid)
            for pid, n in counts.items()
            if pid in placement
        ]
        if held:
            return min(held)[2]
        return min(self.partitions, key=lambda p: (load[p], p))


def _key_counts(
    ttype: TransactionType, current: MapView
) -> dict[PartitionId, int]:
    """How many of the type's keys each partition's primary holds now."""
    counts: dict[PartitionId, int] = {}
    for pid in current.primaries_of(ttype.keys):
        if pid in counts:
            counts[pid] += 1
        else:
            counts[pid] = 1
    return counts


def _majority(counts: dict[PartitionId, int]) -> PartitionId:
    """The partition carrying a type's work now: the one holding most
    of its keys, the lowest id among equals."""
    home, most = -1, 0
    for pid, n in counts.items():
        if n > most or (n == most and pid < home):
            home, most = pid, n
    return home
