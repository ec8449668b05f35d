"""Property-based tests: replica-set agreement under repartition-op races.

The series goldens and benchmark digests only ever execute ``Migrate``
(and almost never a raced one), so they pin the move path bit-for-bit and
say nothing about ``CreateReplica``/``DeleteReplica`` or about ops of
different kinds racing on one tuple.  Here a handful of repartition
transactions — all three kinds, some piggybacked on normal writers —
contend for three tuples on three partitions, and whatever the
interleaving, the map and the stores must still agree at quiescence (the
replica-set agreement property of partial replication).
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import CreateReplica, DeleteReplica, Migrate
from repro.types import Priority, TxnStatus

from ..hypothesis_budget import examples
from ..txn.conftest import build_stack

KEYS = [0, 1, 2]
PARTITIONS = [0, 1, 2]

#: (kind, key, destination-or-victim partition, nominal source offset).
op_specs = st.tuples(
    st.sampled_from(["migrate", "create", "delete"]),
    st.sampled_from(KEYS),
    st.sampled_from(PARTITIONS),
    st.sampled_from([1, 2]),
)

#: (ops, carrier write key or None, submit offset in tenths of a second,
#: priority).  A carrier is a normal single-write transaction the ops
#: ride on, as under the piggyback strategy.  One op per tuple per
#: transaction, as every planner emits (the other case is pinned below).
txn_specs = st.tuples(
    st.lists(op_specs, min_size=1, max_size=3, unique_by=lambda op: op[1]),
    st.one_of(st.none(), st.sampled_from(KEYS)),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(list(Priority)),
)


def make_op(op_id, spec):
    kind, key, partition, source_offset = spec
    if kind == "delete":
        return DeleteReplica(op_id=op_id, key=key, partition=partition)
    cls = Migrate if kind == "migrate" else CreateReplica
    source = (partition + source_offset) % len(PARTITIONS)
    return cls(op_id=op_id, key=key, source=source, destination=partition)


def run_scenario(specs):
    # Capacity 1 stretches every op over a quarter second per half, so
    # transactions submitted tenths of a second apart genuinely overlap.
    stack = build_stack(keys=len(KEYS), capacity=1.0, max_attempts=2)
    txns = []
    op_ids = count()

    def submit_at(delay, txn, priority):
        yield stack.env.timeout(delay)
        stack.tm.submit(txn, priority)

    for ops, carrier_key, tenths, priority in specs:
        rep_ops = [make_op(next(op_ids), spec) for spec in ops]
        if carrier_key is None:
            txn = stack.tm.create_repartition(rep_ops)
        else:
            txn = stack.tm.create_normal(
                [stack.write(carrier_key, 1000 + len(txns))]
            )
            txn.attach_rep_ops(stack.tm.next_id(), rep_ops)
        txns.append(txn)
        stack.env.process(submit_at(tenths / 10, txn, priority))
    # Any exception other than a TransactionAborted escapes from here.
    stack.env.run(until=2000)
    return stack, txns


def assert_agreed(stack, txns):
    store = stack.router.store
    for txn in txns:
        assert txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED), txn
        if txn.status is TxnStatus.ABORTED:
            assert txn.abort_cause is not None, txn
    assert stack.tm.in_flight == 0 and len(stack.tm.queue) == 0

    for key in KEYS:
        holders = {
            node.partition_id
            for node in stack.cluster.nodes
            if key in node.store
        }
        assert holders, f"tuple {key} lost"
        assert set(stack.pmap.replicas_of(key)) == holders, (
            f"tuple {key}: map {stack.pmap.replicas_of(key)} "
            f"vs stores {sorted(holders)}"
        )
        values = {
            stack.cluster.node_for_partition(pid).store.read(key)
            for pid in holders
        }
        assert len(values) == 1, f"tuple {key} replicas diverged: {values}"

    assert store.moving_keys() == frozenset()
    assert store.pinned_epochs() == ()
    for node in stack.cluster.nodes:
        for key in KEYS:
            assert node.locks.holders_of(key) == {}
            assert node.locks.queue_length(key) == 0


class TestReplicaSetAgreement:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.lists(txn_specs, min_size=2, max_size=5))
    def test_racing_ops_leave_map_and_stores_agreed(self, specs):
        assert_agreed(*run_scenario(specs))

    @pytest.mark.xfail(strict=True, reason=(
        "two ops on one tuple in one transaction: the second executes "
        "against the published epoch, blind to the first's staged move, "
        "yet commits against the stage overlay (ROADMAP item 4)"
    ))
    def test_two_ops_on_one_tuple_in_one_transaction(self):
        carrier = ([("migrate", 2, 1, 1)], 0, 0, Priority.HIGH)
        twice = (
            [("migrate", 2, 0, 1), ("migrate", 2, 1, 1)],
            None, 10, Priority.HIGH,
        )
        assert_agreed(*run_scenario([carrier, twice]))
