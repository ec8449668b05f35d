"""PartitionMap's dense column against a dict-of-lists model.

Whatever ``capacity`` it is built with, the map must match the obvious
implementation — a dict of replica lists — through the whole public
interface: same results, same error messages, same check order, for
in-range integer keys, out-of-range keys, and every spill/collapse
transition between the flat single-replica column and the dict.
``_model_step`` below is that obvious implementation, kept here as the
oracle.  Only ``keys()`` ordering differs (dense range ascending, then
the rest in insertion order), which the model's order pins exactly.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import PartitionMap

from ..hypothesis_budget import examples

CAPACITY = 8
#: In-range dense keys, out-of-range ints, and negatives all in one pool.
KEYS = st.integers(min_value=-2, max_value=CAPACITY + 3)
PIDS = st.integers(min_value=0, max_value=3)
OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "assign", "add_replica", "remove_replica", "move",
            "set_replicas", "unmap",
        ]),
        KEYS, PIDS, PIDS,
    ),
    max_size=80,
)
UNMAPPED = "tuple {} is not mapped to any partition"


def _model_step(replicas, op, key, pid, pid2):
    """The op's outcome on a plain replica list (``None`` = unmapped):
    ``(new list, None)`` or ``(unchanged list, error message)``."""
    if op == "assign":
        if replicas is not None:
            return replicas, f"tuple {key} is already mapped"
        return [pid], None
    if op == "set_replicas":
        return ([pid] if pid == pid2 else [pid, pid2]), None
    if op == "unmap":
        return None, None
    if replicas is None:
        return None, UNMAPPED.format(key)
    has = f"tuple {key} already has a replica on partition "
    has_no = f"tuple {key} has no replica on partition {pid}"
    if op == "add_replica":
        if pid in replicas:
            return replicas, has + str(pid)
        return [*replicas, pid], None
    if pid not in replicas:  # remove_replica and move both name a holder
        return replicas, has_no
    if op == "remove_replica":
        if len(replicas) == 1:
            return replicas, f"cannot remove the last replica of tuple {key}"
        return [p for p in replicas if p != pid], None
    if pid2 in replicas:
        return replicas, has + str(pid2)
    return [pid2 if p == pid else p for p in replicas], None


def _map_step(pmap, op, key, pid, pid2):
    """Apply the op to the map; the RoutingError message, or ``None``."""
    try:
        if op == "move":
            pmap.move(key, pid, pid2)
        elif op == "set_replicas":
            pmap.set_replicas(key, [pid] if pid == pid2 else [pid, pid2])
        elif op == "unmap":
            pmap.set_replicas(key, None)
        else:
            getattr(pmap, op)(key, pid)
    except RoutingError as exc:
        return str(exc)
    return None


def _assert_matches(pmap, model, version):
    """``pmap`` holds exactly ``model`` (a ``{key: [pids]}`` dict), keys
    in the merged order: dense range ascending, then insertion order."""
    dense = sorted(k for k in model if 0 <= k < pmap.capacity)
    assert list(pmap.keys()) == dense + [k for k in model if k not in dense]
    assert len(pmap) == len(model)
    assert pmap.version == version
    assert pmap.partition_sizes() == Counter(
        p for replicas in model.values() for p in replicas
    )
    for key, replicas in model.items():
        assert pmap.replicas_of(key) == tuple(replicas)
        assert pmap.replica_count(key) == len(replicas)
        if replicas:
            assert pmap.primary_of(key) == replicas[0]


@settings(max_examples=examples(250), deadline=None)
@given(OPS, st.sampled_from([0, CAPACITY]))
def test_equivalent_to_partition_map(ops, capacity):
    """Same results, errors, sizes, and contents for any interleaving,
    with and without a dense column."""
    model, version = {}, 0
    pmap = PartitionMap(capacity)
    for op, key, pid, pid2 in ops:
        after, error = _model_step(model.get(key), op, key, pid, pid2)
        assert _map_step(pmap, op, key, pid, pid2) == error, (op, key, pid, pid2)
        if error is None:
            version += 1
            if after is None:
                model.pop(key, None)
            else:
                model[key] = after
        assert (key in pmap) == (key in model)
        if key not in model:
            with pytest.raises(RoutingError, match=UNMAPPED.format(key)):
                pmap.primary_of(key)
        _assert_matches(pmap, model, version)
    # Copies are equivalent too — and detached from their originals.
    clone = pmap.copy()
    pmap.set_replicas(CAPACITY - 1, [3, 2, 1])
    pmap.set_replicas(CAPACITY, None)
    assert clone.capacity == capacity
    _assert_matches(clone, model, version)


def test_capacity_must_be_positive():
    """Or zero — no dense column at all, every key in the dict."""
    with pytest.raises(RoutingError, match="capacity"):
        PartitionMap(-1)
    assert PartitionMap().capacity == 0


def test_negative_partition_id_rejected():
    """A pid that is negative (it would collide with the cell
    sentinels) or too wide for a cell is rejected by every mutation
    path, for dense and out-of-range keys alike, before anything is
    written."""
    def _state(pmap):
        cells, replicas = pmap._primary.tobytes(), repr(pmap._replicas)
        return cells, replicas, len(pmap), pmap.partition_sizes(), pmap.version

    pmap = PartitionMap(CAPACITY)
    pmap.assign(1, 0)
    pmap.set_replicas(3, [0, 1])
    pmap.assign(CAPACITY + 1, 0)
    before = _state(pmap)
    for bad in (-1, -3, 2**31):
        for key in (1, 3, CAPACITY + 1):
            for rejected in (
                lambda: pmap.assign(2, bad),
                lambda: pmap.add_replica(key, bad),
                lambda: pmap.move(key, 0, bad),
                lambda: pmap.set_replicas(key, [2, bad]),
            ):
                with pytest.raises(RoutingError, match="partition id must"):
                    rejected()
                assert _state(pmap) == before


def test_spill_and_collapse():
    """Adding a second replica spills a key to the overflow dict;
    dropping back to one collapses it into the flat column again."""
    pmap = PartitionMap(CAPACITY)
    pmap.assign(5, 0)
    assert 5 not in pmap._replicas
    pmap.add_replica(5, 2)
    assert pmap._replicas[5] == [0, 2]
    assert pmap.replicas_of(5) == (0, 2)
    pmap.remove_replica(5, 0)
    assert 5 not in pmap._replicas
    assert pmap.replicas_of(5) == (2,)
    assert pmap.primary_of(5) == 2
    assert len(pmap) == 1


def test_out_of_range_keys_fall_back():
    """Keys outside [0, capacity) — including non-dense negatives and
    overshoots — take the dict path with identical behaviour."""
    pmap = PartitionMap(CAPACITY)
    for key in (-1, CAPACITY, CAPACITY + 100):
        pmap.assign(key, 1)
        pmap.add_replica(key, 3)
        assert pmap.replicas_of(key) == (1, 3)
    assert len(pmap) == 3
    assert pmap.partition_sizes() == {1: 3, 3: 3}


def test_keys_order_dense_ascending_then_overflow():
    """The merged contract: dense range ascending (spilled keys in
    place), then out-of-range keys in insertion order."""
    pmap = PartitionMap(CAPACITY)
    pmap.assign(CAPACITY + 1, 0)  # overflow, inserted first
    pmap.assign(6, 0)
    pmap.assign(-1, 0)
    pmap.assign(2, 0)
    pmap.add_replica(6, 1)  # spills; keeps its place in the dense range
    assert list(pmap.keys()) == [2, 6, CAPACITY + 1, -1]
    assert list(PartitionMap().keys()) == []


def test_set_replicas_empty_list_and_multi():
    pmap = PartitionMap(CAPACITY)
    pmap.set_replicas(4, [1, 2, 3])
    assert pmap.replicas_of(4) == (1, 2, 3)
    pmap.set_replicas(4, [2])
    assert 4 not in pmap._replicas
    assert pmap.replicas_of(4) == (2,)
    pmap.set_replicas(4, [])
    assert 4 in pmap
    assert pmap.replicas_of(4) == ()
    pmap.set_replicas(4, None)
    assert 4 not in pmap
    assert len(pmap) == 0


def test_copy_is_detached():
    pmap = PartitionMap(CAPACITY)
    pmap.assign(1, 0)
    pmap.add_replica(1, 2)
    clone = pmap.copy()
    clone.move(1, 0, 3)
    assert pmap.replicas_of(1) == (0, 2)
    assert clone.replicas_of(1) == (3, 2)
    pmap.assign(2, 1)
    assert 2 not in clone
