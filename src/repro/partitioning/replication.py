"""Read-replication planning (the paper's other two operation kinds).

The optimizer of §2.2 emits three operation types; migrations dominate
the paper's evaluation, but *new replica creation* and *replica
deletion* exist for spreading read load over copies, with the query
router choosing which replica a read visits.

:class:`ReadReplicationPlanner` emits those operations: it replicates
the hottest read-mostly tuples onto the least-loaded partitions (one
:class:`CreateReplica` per new copy) and plans :class:`DeleteReplica`
cleanups for tuples that are no longer hot.  The resulting operations
are packaged into ranked specs directly (one repartition transaction
per tuple) and handed to
:meth:`~repro.core.repartitioner.Repartitioner.submit` like any other
plan's, so every SOAP scheduler can deploy them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Sequence

from ..errors import PartitioningError
from ..routing.epoch import MapView
from ..types import PartitionId, TupleKey
from .cost_model import CostModel
from .operations import CreateReplica, DeleteReplica, RepartitionOperation

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workload.profile import WorkloadProfile


@dataclass(frozen=True)
class ReplicationConfig:
    """Replication policy knobs."""

    #: Replicas each hot tuple should end up with (including primary).
    target_replicas: int = 2
    #: Fraction of profiled tuples (by access frequency) considered hot.
    hot_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.target_replicas < 1:
            raise PartitioningError("need at least one replica")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise PartitioningError("hot fraction must be in (0, 1]")


class ReadReplicationPlanner:
    """Plans replica creation/deletion for hot tuples."""

    def __init__(
        self,
        partitions: Sequence[PartitionId],
        config: ReplicationConfig | None = None,
    ) -> None:
        if not partitions:
            raise PartitioningError("need at least one partition")
        self.partitions = list(partitions)
        self.config = config or ReplicationConfig()

    # ------------------------------------------------------------------
    # Hot-set selection
    # ------------------------------------------------------------------
    def hot_keys(self, profile: "WorkloadProfile") -> list[TupleKey]:
        """The hottest keys by summed accessing-type frequency."""
        ordered = sorted(
            profile.key_index(), key=lambda k: (-profile.key_heat(k), k)
        )
        take = max(1, int(len(ordered) * self.config.hot_fraction))
        return ordered[:take]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_replication(
        self,
        profile: "WorkloadProfile",
        current: MapView,
        start_op_id: int = 0,
    ) -> list[RepartitionOperation]:
        """CreateReplica ops bringing hot keys to the target count."""
        ids = count(start_op_id)
        load = dict.fromkeys(self.partitions, 0)
        for pid, size in current.partition_sizes().items():
            if pid in load:
                load[pid] = size
        ops: list[RepartitionOperation] = []
        for key in self.hot_keys(profile):
            replicas = set(current.replicas_of(key))
            needed = min(
                self.config.target_replicas, len(self.partitions)
            ) - len(replicas)
            source = current.primary_of(key)
            for _ in range(max(0, needed)):
                candidates = [
                    p for p in self.partitions if p not in replicas
                ]
                if not candidates:
                    break
                target = min(candidates, key=lambda p: (load[p], p))
                ops.append(
                    CreateReplica(
                        op_id=next(ids),
                        key=key,
                        source=source,
                        destination=target,
                    )
                )
                replicas.add(target)
                load[target] += 1
        return ops

    def plan_cleanup(
        self,
        profile: "WorkloadProfile",
        current: MapView,
        start_op_id: int = 0,
    ) -> list[RepartitionOperation]:
        """DeleteReplica ops removing extra copies of no-longer-hot keys."""
        ids = count(start_op_id)
        hot = set(self.hot_keys(profile))
        ops: list[RepartitionOperation] = []
        for key in current.keys():
            replicas = current.replicas_of(key)
            if key in hot or len(replicas) <= 1:
                continue
            for pid in replicas[1:]:  # keep the primary
                ops.append(
                    DeleteReplica(op_id=next(ids), key=key, partition=pid)
                )
        return ops

    # ------------------------------------------------------------------
    # Packaging for the schedulers
    # ------------------------------------------------------------------
    def build_specs(
        self,
        ops: Sequence[RepartitionOperation],
        profile: "WorkloadProfile",
        cost_model: CostModel,
    ) -> list:
        """One ranked repartition transaction (spec) per tuple.

        The benefit of replicating a tuple is proportional to the read
        frequency the extra copy absorbs.  Returns
        :class:`~repro.core.ranking.RepartitionTransactionSpec` objects
        (imported lazily: ``core`` builds on ``partitioning``).
        """
        from ..core.ranking import RepartitionTransactionSpec

        index = profile.key_index()
        by_key: dict[TupleKey, list[RepartitionOperation]] = {}
        for op in ops:
            by_key.setdefault(op.key, []).append(op)
        specs = []
        for key, group in by_key.items():
            accessing = index.get(key, [])
            type_id = accessing[0].type_id if accessing else -1
            specs.append(
                RepartitionTransactionSpec(
                    ops=list(group),
                    type_id=type_id,
                    benefit=profile.key_heat(key),
                    cost=cost_model.rep_txn_cost(group),
                )
            )
        specs.sort(key=lambda spec: (-spec.benefit_density, spec.type_id))
        return specs
