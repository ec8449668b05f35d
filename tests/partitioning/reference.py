"""Test-only reference models for the set-up and plan path.

The per-tuple loops the bulk path replaced, kept verbatim as the oracle
it is compared against (as ``tests/locking/reference.py`` keeps
``_refresh_wait_edges``): ``derive_plan`` with its two helpers,
``diff_plan`` and ``generate_and_rank`` resolve a placement once per
key per *use* and rebuild every per-type structure from scratch;
``place_unprofiled_keys`` and ``load_stores`` walk the store and map
one tuple at a time.  They are slow — which is why they no longer ship
— and they owe nothing to the code under test beyond the public
``PartitionMap``/``MapEpoch``/``PartitionStore`` single-key methods.

The benchmark digests cannot pin the branches no benchmark cell takes
(types sharing keys, spilled or out-of-range map cells, partitions
outside the placement set, a stale epoch, several ops of any kind on
one key, op ids that neither start at 0 nor run contiguously);
``tests/partitioning/test_bulk_equivalence.py`` does, against these.
One behaviour is pinned as it stands rather than as documented:
``derive_plan`` re-assigns the already-claimed keys of a partly-claimed
type.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.ranking import RepartitionTransactionSpec
from repro.errors import PartitioningError
from repro.partitioning.cost_model import DISTRIBUTED_COST_FACTOR, CostModel
from repro.partitioning.operations import Migrate, RepartitionOperation
from repro.partitioning.plan import PartitionPlan
from repro.routing.epoch import MapView
from repro.routing.partition_map import PartitionMap
from repro.storage.record import Record
from repro.types import PartitionId
from repro.workload.dataset import PlacementConfig
from repro.workload.profile import TransactionType, WorkloadProfile


# ----------------------------------------------------------------------
# partitioning/optimizer.py
# ----------------------------------------------------------------------
def derive_plan(
    partitions: Sequence[PartitionId],
    profile: WorkloadProfile,
    current: MapView,
    types_to_fix: Optional[Sequence[TransactionType]] = None,
) -> PartitionPlan:
    """``RepartitionOptimizer(cost_model, partitions).derive_plan``."""
    partitions = list(partitions)
    plan = PartitionPlan()
    load: dict[PartitionId, float] = {p: 0.0 for p in partitions}

    # Seed loads with what is already resident.
    index = profile.key_index()
    for ttype in profile.types:
        home = _current_home(ttype, current)
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
        target = _choose_target(partitions, ttype, current, load)
        for key in ttype.keys:
            plan.assign(key, target)
            claimed.add(key)
        # Update load estimate: the type now runs on its target.
        previous_home = _current_home(ttype, current)
        load[previous_home] -= ttype.frequency
        load[target] += ttype.frequency
        # Types sharing keys with this one are constrained; skip them
        # by claiming their keys is sufficient (handled above).
        for key in ttype.keys:
            for other in index.get(key, ()):
                if other.type_id != ttype.type_id:
                    claimed.update(other.keys)
    return plan


def _current_home(ttype: TransactionType, current: MapView) -> PartitionId:
    """The partition carrying the type's work now (majority partition)."""
    counts: dict[PartitionId, int] = {}
    for key in ttype.keys:
        pid = current.primary_of(key)
        counts[pid] = counts.get(pid, 0) + 1
    return min(counts, key=lambda p: (-counts[p], p))


def _choose_target(
    partitions: list[PartitionId],
    ttype: TransactionType,
    current: MapView,
    load: dict[PartitionId, float],
) -> PartitionId:
    """Most of the type's tuples, then least loaded, then lowest id."""
    counts: dict[PartitionId, int] = {p: 0 for p in partitions}
    for key in ttype.keys:
        pid = current.primary_of(key)
        if pid in counts:
            counts[pid] += 1
    return min(
        partitions,
        key=lambda p: (-counts[p], load.get(p, 0.0), p),
    )


# ----------------------------------------------------------------------
# partitioning/plan.py
# ----------------------------------------------------------------------
def diff_plan(
    current: MapView,
    plan: PartitionPlan,
    start_op_id: int = 0,
) -> list[RepartitionOperation]:
    """Compute the migrations turning ``current`` into ``plan``."""
    ids = count(start_op_id)
    operations: list[RepartitionOperation] = []
    for key, target in plan.assignment.items():
        if key not in current:
            raise PartitioningError(f"plan references unmapped tuple {key}")
        source = current.primary_of(key)
        if source != target:
            operations.append(
                Migrate(op_id=next(ids), key=key, source=source, destination=target)
            )
    return operations


# ----------------------------------------------------------------------
# partitioning/cost_model.py (the part Algorithm 1 reads) + core/ranking.py
# ----------------------------------------------------------------------
def _txn_cost(cost_model: CostModel, partitions_touched: int) -> float:
    if partitions_touched == 1:
        return cost_model.base_cost
    return cost_model.base_cost * DISTRIBUTED_COST_FACTOR


def _improvement(
    cost_model: CostModel,
    ttype: TransactionType,
    plan: PartitionPlan,
    current: MapView,
) -> float:
    """``C_i(O) − C_i(P)``, each side its own pass over the keys."""
    under_map = frozenset(current.primary_of(key) for key in ttype.keys)
    under_plan = frozenset(
        plan.effective_partition(key, current) for key in ttype.keys
    )
    return _txn_cost(cost_model, len(under_map)) - _txn_cost(
        cost_model, len(under_plan)
    )


def generate_and_rank(
    operations: Sequence[RepartitionOperation],
    plan: PartitionPlan,
    current: MapView,
    profile: WorkloadProfile,
    cost_model: CostModel,
) -> list[RepartitionTransactionSpec]:
    """Run Algorithm 1 and return specs in descending benefit density."""
    ops_by_key: dict[int, list[RepartitionOperation]] = {}
    for op in operations:
        ops_by_key.setdefault(op.key, []).append(op)
        op.benefit = 0.0  # reset accumulators from any previous run

    key_index = profile.key_index()
    candidate_ids: set[int] = set()
    for key in ops_by_key:
        for candidate in key_index.get(key, ()):
            candidate_ids.add(candidate.type_id)
    top: dict[int, list[RepartitionOperation]] = {}
    improvements: dict[int, float] = {}
    for ttype in profile.types:
        if ttype.type_id not in candidate_ids:
            continue
        group: list[RepartitionOperation] = []
        seen: set[int] = set()
        for key in ttype.keys:
            for op in ops_by_key.get(key, ()):
                if op.op_id not in seen:
                    group.append(op)
                    seen.add(op.op_id)
        if not group:
            continue
        delta = _improvement(cost_model, ttype, plan, current)
        if delta <= 0:
            continue
        top[ttype.type_id] = group
        improvements[ttype.type_id] = delta

    # Lines 6-9: spread each type's gain evenly over its op group.
    for type_id, group in top.items():
        ttype = profile.type(type_id)
        per_op = ttype.frequency * improvements[type_id] / len(group)
        for op in group:
            op.benefit += per_op

    # Lines 10-15: total benefit per group, sorted descending.
    group_benefit = {
        type_id: sum(op.benefit for op in group)
        for type_id, group in top.items()
    }
    ranked_types = sorted(
        group_benefit, key=lambda tid: (-group_benefit[tid], tid)
    )

    # Lines 16-26: carve groups into transactions; each op used once.
    remaining: set[int] = {op.op_id for op in operations}
    specs: list[RepartitionTransactionSpec] = []
    for type_id in ranked_types:
        group = []
        benefit = group_benefit[type_id]
        for op in top[type_id]:
            if op.op_id in remaining:
                group.append(op)
            else:
                benefit -= op.benefit
        if not group:
            continue
        for op in group:
            remaining.discard(op.op_id)
        cost = cost_model.rep_op_cost * sum(1 for _op in group)
        specs.append(
            RepartitionTransactionSpec(
                ops=group, type_id=type_id, benefit=benefit, cost=cost
            )
        )

    leftovers = [op for op in operations if op.op_id in remaining]
    if leftovers:
        specs.append(
            RepartitionTransactionSpec(
                ops=leftovers,
                type_id=-1,
                benefit=0.0,
                cost=cost_model.rep_op_cost * sum(1 for _op in leftovers),
            )
        )

    # Line 27: sort TRep by descending benefit density.
    specs.sort(key=lambda spec: (-spec.benefit_density, spec.type_id))
    return specs


# ----------------------------------------------------------------------
# workload/dataset.py
# ----------------------------------------------------------------------
def place_unprofiled_keys(
    pmap: PartitionMap,
    tuple_count: int,
    partitions: Sequence[PartitionId],
) -> None:
    """Round-robin any keys no transaction type touches (cold data)."""
    p = len(partitions)
    for key in range(tuple_count):
        if key not in pmap:
            pmap.assign(key, partitions[key % p])


def load_stores(
    cluster: Cluster,
    pmap: PartitionMap,
    config: PlacementConfig,
    rng: random.Random,
) -> int:
    """Materialise records on the nodes according to the map."""
    loaded = 0
    for key in pmap.keys():
        for pid in pmap.replicas_of(key):
            node = cluster.node_for_partition(pid)
            node.store.insert(
                Record(
                    key=key,
                    value=rng.randrange(1_000_000),
                    size_bytes=config.tuple_size_bytes,
                )
            )
            loaded += 1
    return loaded
