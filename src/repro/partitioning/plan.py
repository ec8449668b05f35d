"""Partition plans and plan diffing.

A :class:`PartitionPlan` is the *target* placement the optimizer wants:
a mapping from tuple key to the partition that should hold its primary
replica.  :func:`diff_plan` compares a plan against the current
placement — a mutable :class:`~repro.routing.partition_map.PartitionMap`
or, preferably, an immutable :class:`~repro.routing.epoch.MapEpoch`
snapshot so the diff is computed against one consistent map version —
and emits the repartition operations needed to realise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Optional

from ..errors import PartitioningError, RoutingError
from ..routing.epoch import MapView
from ..types import PartitionId, TupleKey
from .operations import Migrate, RepartitionOperation


@dataclass
class PartitionPlan:
    """Target primary placement for a set of tuples.

    Tuples absent from the plan keep their current placement.
    """

    assignment: dict[TupleKey, PartitionId] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.assignment)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self.assignment

    def target_of(self, key: TupleKey) -> Optional[PartitionId]:
        """Planned partition of ``key``, or ``None`` if unconstrained."""
        return self.assignment.get(key)

    def assign(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Set (or overwrite) the target partition for ``key``."""
        self.assignment[key] = partition_id

    def partitions_used(self) -> frozenset[PartitionId]:
        """All partitions the plan places tuples on."""
        return frozenset(self.assignment.values())

    def keys(self) -> Iterator[TupleKey]:
        """Iterate planned keys."""
        return iter(self.assignment)

    def effective_partition(
        self, key: TupleKey, current: MapView
    ) -> PartitionId:
        """Where ``key`` lives once the plan is deployed."""
        target = self.assignment.get(key)
        if target is not None:
            return target
        return current.primary_of(key)


def diff_plan(
    current: MapView,
    plan: PartitionPlan,
    start_op_id: int = 0,
) -> list[RepartitionOperation]:
    """Compute the migrations turning ``current`` into ``plan``.

    Only primary placement is diffed (the paper's evaluation moves
    single-replica tuples); replica-creation/deletion operations are
    emitted by replication-oriented planners directly.
    """
    assignment = plan.assignment
    try:
        sources = current.primaries_of(assignment)
    except RoutingError:
        unmapped = next(key for key in assignment if key not in current)
        raise PartitioningError(
            f"plan references unmapped tuple {unmapped}"
        ) from None
    ids = count(start_op_id)
    return [
        Migrate(op_id=next(ids), key=key, source=source, destination=target)
        for (key, target), source in zip(assignment.items(), sources)
        if source != target
    ]


def plan_from_map(current: MapView) -> PartitionPlan:
    """Snapshot the current placement as a plan (identity plan)."""
    plan = PartitionPlan()
    for key in current.keys():
        plan.assign(key, current.primary_of(key))
    return plan
