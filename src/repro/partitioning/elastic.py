"""Placement planning for elastic membership events.

Two planners translate a membership transition into the repartition
operations that realise it, both emitting plain
:class:`~repro.partitioning.operations.RepartitionOperation` lists so
the standard SOAP pipeline — Algorithm 1 ranking, epoch-staged
execution, scheduler-driven deployment — applies unchanged:

* :func:`plan_drain` empties a DRAINING partition: every resident tuple
  is migrated to the least-loaded surviving placement target (spare
  replicas on the draining partition are simply deleted);
* :func:`plan_rebalance` fills JOINING partitions toward the cluster
  mean, moving the *coldest* tuples first so the collocation groups the
  optimizer assembled stay intact.

Both walk keys in sorted order and break ties by partition id, so a
given epoch + node set always yields the same plan — the elastic
experiments stay bit-identical between serial and parallel runs.
"""

from __future__ import annotations

from itertools import count
from typing import Optional, Sequence

from ..errors import PartitioningError
from ..routing.epoch import MapView
from ..types import PartitionId
from ..workload.profile import WorkloadProfile
from .operations import DeleteReplica, Migrate, RepartitionOperation
from .plan import PartitionPlan


def _least_loaded(
    loads: dict[PartitionId, int], targets: Sequence[PartitionId]
) -> PartitionId:
    """The emptiest target partition (ties broken by id)."""
    return min(targets, key=lambda pid: (loads.get(pid, 0), pid))


def plan_drain(
    epoch: MapView,
    draining: Sequence[PartitionId],
    targets: Sequence[PartitionId],
) -> tuple[PartitionPlan, list[RepartitionOperation]]:
    """Operations that empty ``draining`` partitions onto ``targets``.

    Single-replica tuples (the common case) are migrated to the
    currently least-loaded target; redundant replicas of multi-replica
    tuples are deleted in place.  The returned plan records the target
    primary of every migrated tuple so Algorithm 1 can credit the
    transaction types whose cost improves.
    """
    drain_set = set(draining)
    target_list = [pid for pid in targets if pid not in drain_set]
    if not target_list:
        raise PartitioningError(
            f"cannot drain partitions {sorted(drain_set)}: "
            "no surviving placement targets"
        )
    loads = epoch.partition_sizes()
    ids = count()
    plan = PartitionPlan()
    operations: list[RepartitionOperation] = []
    for key in sorted(epoch.keys()):
        replicas = tuple(epoch.replicas_of(key))
        resident = [pid for pid in replicas if pid in drain_set]
        if not resident:
            continue
        survivors = len(replicas) - len(resident)
        for pid in resident:
            if survivors > 0:
                # Another replica outlives the drain: drop this one.
                operations.append(
                    DeleteReplica(op_id=next(ids), key=key, partition=pid)
                )
                loads[pid] = loads.get(pid, 0) - 1
                continue
            destination = _least_loaded(loads, target_list)
            operations.append(
                Migrate(
                    op_id=next(ids),
                    key=key,
                    source=pid,
                    destination=destination,
                )
            )
            plan.assign(key, destination)
            loads[pid] = loads.get(pid, 0) - 1
            loads[destination] = loads.get(destination, 0) + 1
            survivors += 1
    return plan, operations


def plan_rebalance(
    epoch: MapView,
    joining: Sequence[PartitionId],
    targets: Sequence[PartitionId],
    profile: Optional[WorkloadProfile] = None,
) -> tuple[PartitionPlan, list[RepartitionOperation]]:
    """Operations that fill ``joining`` partitions toward the mean.

    ``targets`` is the full post-transition placement set (ACTIVE ∪
    JOINING); each joining partition receives tuples until it holds its
    fair share ``total // len(targets)``.  Donors are the currently
    most-loaded non-joining targets, and candidate tuples move coldest
    first (workload-profile access frequency, unprofiled tuples count as
    stone cold) so hot collocated groups are disturbed last — keeping
    the distributed-transaction cost the optimizer just minimised.
    Multi-replica tuples are left to the replication planners.
    """
    join_set = set(joining)
    if not join_set:
        return PartitionPlan(), []
    unknown = join_set.difference(targets)
    if unknown:
        raise PartitioningError(
            f"joining partitions {sorted(unknown)} are not placement targets"
        )
    loads = epoch.partition_sizes()
    total = sum(loads.get(pid, 0) for pid in targets)
    share = total // len(targets)
    wanted = {
        pid: max(0, share - loads.get(pid, 0)) for pid in sorted(join_set)
    }
    if not any(wanted.values()):
        return PartitionPlan(), []

    candidates = []
    for key in epoch.keys():
        replicas = tuple(epoch.replicas_of(key))
        if len(replicas) != 1 or replicas[0] in join_set:
            continue
        heat = profile.key_heat(key) if profile is not None else 0.0
        candidates.append((heat, key, replicas[0]))
    candidates.sort(key=lambda item: (item[0], item[1]))

    ids = count()
    plan = PartitionPlan()
    operations: list[RepartitionOperation] = []
    for _, key, source in candidates:
        if not any(wanted.values()):
            break
        if loads.get(source, 0) <= share:
            continue  # donor already at (or below) its fair share
        destination = min(
            (pid for pid in wanted if wanted[pid] > 0),
            key=lambda pid: (loads.get(pid, 0), pid),
        )
        operations.append(
            Migrate(
                op_id=next(ids), key=key, source=source, destination=destination
            )
        )
        plan.assign(key, destination)
        loads[source] = loads.get(source, 0) - 1
        loads[destination] = loads.get(destination, 0) + 1
        wanted[destination] -= 1
    return plan, operations
