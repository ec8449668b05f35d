"""Repartition operations — the unit of work in a repartition plan.

The paper's optimizer emits three operation types (§2.2):

* **new replica creation** — insert a replica of a tuple into a partition
  that holds none;
* **replica deletion** — remove one specific replica of a multi-replica
  tuple;
* **objects migration** — relocate a tuple between partitions, realised
  as replica creation at the destination followed by deletion at the
  source.

Each operation carries a mutable ``benefit`` accumulator filled in by
Algorithm 1 (see :mod:`repro.core.ranking`), and answers the two
per-kind questions the executor asks of a placement view — at staging
time against the published epoch, at commit against its stage overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

from ..errors import PartitioningError
from ..types import PartitionId, TupleKey


class ReplicaView(Protocol):
    """A placement to judge an operation against: a partition map, a
    published epoch and an uncommitted stage overlay all qualify."""

    def replicas_of(self, key: TupleKey) -> Sequence[PartitionId]: ...

    def primary_of(self, key: TupleKey) -> PartitionId: ...


@dataclass(slots=True)
class RepartitionOperation:
    """Base class for the three repartition operation kinds."""

    op_id: int
    key: TupleKey
    benefit: float = field(default=0.0, compare=False)

    @property
    def partitions_touched(self) -> frozenset[PartitionId]:
        """Partitions that participate in executing this operation."""
        raise NotImplementedError

    @property
    def kind(self) -> str:
        """Short operation-kind tag for logs and reports."""
        raise NotImplementedError

    def applied_in(self, view: ReplicaView) -> bool:
        """Whether ``view`` already shows this operation's effect."""
        raise NotImplementedError

    def partitions_in(self, view: ReplicaView) -> frozenset[PartitionId]:
        """Partitions that execute this operation given ``view``."""
        return self.partitions_touched


@dataclass(slots=True)
class CreateReplica(RepartitionOperation):
    """Insert a new replica of ``key`` into ``destination``."""

    source: PartitionId = 0
    destination: PartitionId = 0

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise PartitioningError(
                f"replica creation for tuple {self.key} has identical "
                f"source and destination {self.source}"
            )

    @property
    def partitions_touched(self) -> frozenset[PartitionId]:
        return frozenset((self.source, self.destination))

    @property
    def kind(self) -> str:
        return "create-replica"

    def applied_in(self, view: ReplicaView) -> bool:
        return self.destination in view.replicas_of(self.key)


@dataclass(slots=True)
class DeleteReplica(RepartitionOperation):
    """Delete the replica of ``key`` residing on ``partition``."""

    partition: PartitionId = 0

    @property
    def partitions_touched(self) -> frozenset[PartitionId]:
        return frozenset((self.partition,))

    @property
    def kind(self) -> str:
        return "delete-replica"

    def applied_in(self, view: ReplicaView) -> bool:
        return self.partition not in view.replicas_of(self.key)


@dataclass(slots=True)
class Migrate(RepartitionOperation):
    """Relocate ``key`` from ``source`` to ``destination``."""

    source: PartitionId = 0
    destination: PartitionId = 0

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise PartitioningError(
                f"migration of tuple {self.key} has identical source and "
                f"destination {self.source}"
            )

    @property
    def partitions_touched(self) -> frozenset[PartitionId]:
        return frozenset((self.source, self.destination))

    @property
    def kind(self) -> str:
        return "migrate"

    def applied_in(self, view: ReplicaView) -> bool:
        return view.primary_of(self.key) == self.destination

    def partitions_in(self, view: ReplicaView) -> frozenset[PartitionId]:
        # The planned source may be stale: the move starts from wherever
        # the primary lives now.
        return frozenset((view.primary_of(self.key), self.destination))


def keys_of(operations: Iterator[RepartitionOperation]) -> set[TupleKey]:
    """The set of tuple keys an operation list touches."""
    return {op.key for op in operations}
