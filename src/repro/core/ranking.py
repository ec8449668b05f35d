"""Algorithm 1: generating and ranking repartition transactions.

Given the repartition operations ``OPrep`` emitted by the optimizer and
the new partition plan P, the algorithm:

1. builds ``Top`` — for each normal transaction type t_i whose cost
   improves under P (``C_i(O) − C_i(P) > 0``), the group of operations
   that modify objects t_i accesses;
2. spreads each type's gain ``f_i (C_i(O) − C_i(P))`` evenly over its
   operation group, accumulating per-operation benefit;
3. totals benefits per group (``Tbenefit``) and walks groups in
   descending total benefit, turning each group into one repartition
   transaction while ensuring every operation belongs to exactly one
   transaction (operations already consumed by a hotter group are
   removed, and their benefit subtracted);
4. computes each transaction's benefit density ``B_j / C_j`` and returns
   the transactions sorted by descending density, together with ``TRep``
   mapping each benefiting normal-transaction type to its repartition
   transaction (the structure Algorithm 2's piggybacking consults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import PartitioningError
from ..partitioning.cost_model import CostModel
from ..partitioning.operations import RepartitionOperation
from ..partitioning.plan import PartitionPlan
from ..routing.epoch import MapView
from ..workload.profile import WorkloadProfile


@dataclass(slots=True)
class RepartitionTransactionSpec:
    """A ranked repartition transaction, before it becomes a Transaction.

    ``type_id`` is the benefiting normal-transaction type recorded in
    TRep (the paper pairs each repartition transaction with one affected
    normal transaction).
    """

    ops: list[RepartitionOperation]
    type_id: int
    benefit: float
    cost: float

    @property
    def benefit_density(self) -> float:
        """``B_j / C_j``, the ranking key (0 for a transaction of no cost)."""
        return self.benefit / self.cost if self.cost > 0 else 0.0


def generate_and_rank(
    operations: Sequence[RepartitionOperation],
    plan: PartitionPlan,
    current: MapView,
    profile: WorkloadProfile,
    cost_model: CostModel,
) -> list[RepartitionTransactionSpec]:
    """Run Algorithm 1 and return specs in descending benefit density."""
    # A key holds its one op itself, and a list only where it carries
    # several (say, a replica created and another dropped).
    ops_by_key: dict[int, RepartitionOperation | list[RepartitionOperation]] = {}
    for op in operations:
        op.benefit = 0.0  # reset accumulators from any previous run
        held = ops_by_key.setdefault(op.key, op)
        if isinstance(held, list):
            held.append(op)
        elif held is not op:
            ops_by_key[op.key] = [held, op]
    # Every operation ends up in exactly one transaction, told apart by
    # its position in ``operations``.  Planners number ops consecutively
    # (position = id - first id); other ids pay for an id -> position map.
    base = operations[0].op_id if operations else 0
    position: dict[int, int] | None = None
    if any(op.op_id - base != i for i, op in enumerate(operations)):
        position = {op.op_id: i for i, op in enumerate(operations)}
        if len(position) != len(operations):
            raise PartitioningError("repartition operations must have distinct ids")

    # Lines 1-5: build Top (type -> ops touching its keys), filtered to
    # types that actually improve under the plan.  One scan in profile
    # order, the order the benefit spread below accumulates floats in.
    top: dict[int, list[RepartitionOperation]] = {}
    for ttype in profile.types:
        group: list[RepartitionOperation] = []
        for key in ttype.keys:
            held = ops_by_key.get(key)
            if isinstance(held, list):
                group.extend(held)
            elif held is not None:
                group.append(held)
        if not group:
            continue
        delta = cost_model.improvement(ttype, plan, current)
        if delta <= 0:
            continue
        top[ttype.type_id] = group
        # Lines 6-9: spread the type's gain evenly over its op group.
        per_op = ttype.frequency * delta / len(group)
        for op in group:
            op.benefit += per_op

    # Lines 10-15: total benefit per group, sorted descending.
    group_benefit = {
        type_id: sum([op.benefit for op in group])
        for type_id, group in top.items()
    }
    ranked_types = sorted(
        group_benefit, key=lambda tid: (-group_benefit[tid], tid)
    )

    # Lines 16-26: carve groups into transactions; each op used once.
    used = bytearray(len(operations))
    specs: list[RepartitionTransactionSpec] = []
    for type_id in ranked_types:
        group = []
        benefit = group_benefit[type_id]
        for op in top[type_id]:
            i = op.op_id - base if position is None else position[op.op_id]
            if used[i]:
                benefit -= op.benefit
            else:
                used[i] = 1
                group.append(op)
        if not group:
            continue
        cost = cost_model.rep_txn_cost(group)
        specs.append(
            RepartitionTransactionSpec(
                ops=group, type_id=type_id, benefit=benefit, cost=cost
            )
        )

    # Leftover operations benefit no profiled type directly (e.g. load
    # balancing moves); package them one transaction per key group so
    # they still get applied, ranked last.
    leftovers = [op for op, taken in zip(operations, used) if not taken]
    if leftovers:
        specs.append(
            RepartitionTransactionSpec(
                ops=leftovers,
                type_id=-1,
                benefit=0.0,
                cost=cost_model.rep_txn_cost(leftovers),
            )
        )

    # Line 27: sort TRep by descending benefit density.
    specs.sort(key=lambda spec: (-spec.benefit_density, spec.type_id))
    return specs


def chunk_specs(
    specs: Sequence[RepartitionTransactionSpec], max_ops: int
) -> list[RepartitionTransactionSpec]:
    """Split oversized specs into transactions of at most ``max_ops`` ops.

    Draining a node emits one operation per resident tuple; packaged as
    a single repartition transaction that would lock thousands of keys
    at once and stall the cluster it is supposed to relieve.  Chunking
    keeps each transaction's lock footprint bounded while preserving the
    rank order Algorithm 1 produced: chunks inherit their parent's
    position, benefit and cost are split proportionally (so benefit
    density — the ranking key — is preserved), and only the first chunk
    keeps the parent's ``type_id`` (TRep maps each type to exactly one
    transaction).
    """
    if max_ops < 1:
        raise ValueError(f"max_ops must be positive: {max_ops}")
    out: list[RepartitionTransactionSpec] = []
    for spec in specs:
        if len(spec.ops) <= max_ops:
            out.append(spec)
            continue
        total = len(spec.ops)
        for start in range(0, total, max_ops):
            ops = spec.ops[start:start + max_ops]
            share = len(ops) / total
            out.append(
                RepartitionTransactionSpec(
                    ops=ops,
                    type_id=spec.type_id if start == 0 else -1,
                    benefit=spec.benefit * share,
                    cost=spec.cost * share,
                )
            )
    return out
