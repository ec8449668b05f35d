"""PartitionStore against a dict-of-Record model, and its flyweight views.

The column store must be indistinguishable, through the public
interface, from the obvious implementation — one ``Record`` object per
key in a dict — same results, same counters, same error messages, under
arbitrary interleavings of the operations the executor and migration
paths perform.  ``DictStoreModel`` below is that obvious implementation,
kept here as the oracle a hypothesis harness drives the store against;
targeted tests cover the view semantics the executor relies on (live
write-through, survival across slot compaction, stale detection after
delete) and rejected calls leaving the store untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import PartitionStore, Record, WriteAheadLog, recover

from ..hypothesis_budget import examples

KEYS = st.integers(min_value=0, max_value=15)
VALUES = st.integers(min_value=-(2**62), max_value=2**62)
OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "upsert", "delete", "write", "view_write", "read",
            "get_copy", "keys", "rows",
        ]),
        KEYS, VALUES,
    ),
    max_size=60,
)
PARTITION = 3


class DictStoreModel:
    """The store's contract in its plainest form: a dict of Records."""

    def __init__(self):
        self.records = {}
        self.inserts = self.deletes = 0

    def step(self, op, key, value):
        """Run one operation; returns (result, error message or None)."""
        records, record = self.records, self.records.get(key)
        if op == "insert" and record is not None:
            return None, f"tuple {key} already resident on partition {PARTITION}"
        if op in ("insert", "upsert"):
            self.inserts += record is None
            version = 3 if op == "upsert" else 0
            records[key] = Record(key=key, value=value, version=version)
            return None, None
        if op == "keys":
            return (list(records), len(records)), None
        if op == "rows":
            return [
                (r.key, r.value, r.version, r.size_bytes) for r in records.values()
            ], None
        if record is None:
            if op in ("view_write", "get_copy"):
                return None, None
            what = "cannot delete tuple {}: not" if op == "delete" else "tuple {} not"
            return None, f"{what.format(key)} resident on partition {PARTITION}"
        if op == "delete":
            self.deletes += 1
            del records[key]
        elif op == "read":
            return record.value, None
        elif op != "get_copy":
            record.write(value)
            return ((value, record.version) if op == "view_write" else None), None
        return (key, record.value, record.version), None


def _apply(store, op, key, value):
    """Run one operation; returns (result, error message or None)."""
    try:
        if op in ("insert", "upsert"):
            version = 3 if op == "upsert" else 0
            getattr(store, op)(Record(key=key, value=value, version=version))
        elif op == "write":
            store.write(key, value)
        elif op == "read":
            return store.read(key), None
        elif op == "keys":
            return (list(store.keys()), len(store)), None
        elif op == "rows":
            return list(store.rows()), None
        elif op == "view_write":
            view = store.peek(key)
            if view is not None:
                view.write(value)
                return (view.value, view.version), None
        elif op == "delete" or key in store:  # get_copy of a resident key
            record = store.delete(key) if op == "delete" else store.get(key).copy()
            return (record.key, record.value, record.version), None
        return None, None
    except StorageError as exc:
        return None, str(exc)


@settings(max_examples=examples(200), deadline=None)
@given(OPS)
def test_equivalent_to_partition_store(ops):
    """Same results, errors, counters, and contents for any interleaving."""
    model = DictStoreModel()
    store = PartitionStore(PARTITION)
    for op, key, value in ops:
        assert _apply(store, op, key, value) == model.step(op, key, value), (
            op, key, value
        )
    assert list(store.rows()) == model.step("rows", 0, 0)[0]
    assert (store.inserts, store.deletes) == (model.inserts, model.deletes)


def test_views_are_live_and_survive_compaction():
    """The executor's contract: held views track the store through
    other keys' swap-with-last deletes, and writes land in the store."""
    store = PartitionStore(0)
    for key in range(4):
        store.insert(Record(key=key, value=key * 10))
    view = store.get(3)  # occupies the last slot
    store.delete(0)  # swap-with-last moves key 3 into slot 0
    assert view.value == 30
    view.write(99)
    assert store.read(3) == 99
    assert store.get(3).version == 1
    # Direct attribute assignment (the executor's undo path).
    view.value = -5
    view.version = 7
    assert store.read(3) == -5
    assert store.get(3).version == 7


def test_stale_view_raises():
    store = PartitionStore(0)
    store.insert(Record(key=1, value=1))
    view = store.get(1)
    store.delete(1)
    with pytest.raises(StorageError, match="stale record view"):
        _ = view.value
    with pytest.raises(StorageError, match="no longer resident"):
        view.write(2)


def test_copy_is_detached():
    store = PartitionStore(0)
    store.insert(Record(key=1, value=10))
    snapshot = store.get(1).copy()
    assert isinstance(snapshot, Record)
    store.write(1, 20)
    assert snapshot.value == 10


def test_insert_accepts_views_from_other_stores():
    """Migration inserts the source's record object into the target."""
    source = PartitionStore(0)
    target = PartitionStore(1)
    source.insert(Record(key=5, value=42))
    source.write(5, 43)
    target.insert(source.get(5))
    assert target.read(5) == 43
    assert target.get(5).version == 1
    # A detached copy inserts the same way.
    third = PartitionStore(2)
    third.insert(source.get(5).copy())
    assert third.read(5) == 43


def test_repr_shows_payload():
    store = PartitionStore(0)
    store.insert(Record(key=2, value=7))
    assert "key=2" in repr(store.get(2))


def test_wal_roundtrip_with_compact_store():
    """Checkpoint + committed tail replay; the open transaction is lost."""
    store = PartitionStore(4)
    wal = WriteAheadLog(4)
    for key in range(8):
        store.insert(Record(key=key, value=key))
    wal.log_checkpoint(store)
    wal.log_begin(1)
    wal.log_write(1, 3, 333)
    wal.log_delete(1, 7)
    wal.log_commit(1)
    wal.log_begin(2)
    wal.log_write(2, 4, 444)  # never commits; must not survive

    recovered = recover(wal)
    assert recovered.read(3) == 333
    assert 7 not in recovered
    assert recovered.read(4) == 4
    assert len(recovered) == 7


OVERSIZE = 2**70


def _state(store):
    columns = (store._keys, store._values, store._versions, store._sizes)
    counters = (store.inserts, store.deletes)
    return dict(store._index), counters, [c.tobytes() for c in columns]


@pytest.mark.parametrize("rejected", [
    lambda s: s.insert(Record(key=2, value=OVERSIZE)),
    lambda s: s.insert(Record(key=2, version=OVERSIZE)),
    lambda s: s.insert(Record(key=2, size_bytes=-OVERSIZE)),
    lambda s: s.insert(Record(key=OVERSIZE)),
    lambda s: s.insert(Record(key=2, value=1.5)),
    lambda s: s.upsert(Record(key=2, value=OVERSIZE)),
    lambda s: s.upsert(Record(key=1, value=5, version=OVERSIZE)),
    lambda s: s.write(1, OVERSIZE),
    lambda s: s.get(1).write(-OVERSIZE),
    lambda s: setattr(s.get(1), "value", OVERSIZE),
    lambda s: setattr(s.get(1), "version", OVERSIZE),
    lambda s: setattr(s.get(1), "size_bytes", OVERSIZE),
])
def test_rejected_call_leaves_store_unchanged(rejected):
    """A field the 64-bit columns cannot hold is a StorageError raised
    before anything is written: same bytes, same counters, same index."""
    store = PartitionStore(0)
    store.insert(Record(key=0, value=7))
    store.insert(Record(key=1, value=8))
    before = _state(store)
    with pytest.raises(StorageError, match="64-bit"):
        rejected(store)
    assert _state(store) == before
