"""Tests for records, partition stores, and the catalog."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    DEFAULT_TUPLE_SIZE_BYTES,
    Catalog,
    PartitionStore,
    Record,
    TableSchema,
)


class TestRecord:
    def test_defaults_match_paper(self):
        record = Record(key=1)
        assert record.size_bytes == DEFAULT_TUPLE_SIZE_BYTES == 8
        assert record.version == 0

    def test_write_bumps_version(self):
        record = Record(key=1, value=10)
        record.write(20)
        assert record.value == 20
        assert record.version == 1

    def test_copy_is_independent(self):
        record = Record(key=1, value=10)
        clone = record.copy()
        clone.write(99)
        assert record.value == 10
        assert clone.value == 99

    def test_copy_preserves_version(self):
        record = Record(key=1)
        record.write(5)
        assert record.copy().version == 1


class TestPartitionStore:
    def test_insert_and_get(self):
        store = PartitionStore(0)
        store.insert(Record(key=7, value=3))
        assert store.get(7).value == 3
        assert 7 in store
        assert len(store) == 1

    def test_get_missing_raises(self):
        store = PartitionStore(0)
        with pytest.raises(StorageError, match="not resident"):
            store.get(99)

    def test_peek_missing_returns_none(self):
        store = PartitionStore(0)
        assert store.peek(99) is None

    def test_duplicate_insert_raises(self):
        store = PartitionStore(0)
        store.insert(Record(key=1))
        with pytest.raises(StorageError, match="already resident"):
            store.insert(Record(key=1))

    def test_upsert_overwrites(self):
        store = PartitionStore(0)
        store.insert(Record(key=1, value=10))
        store.upsert(Record(key=1, value=20))
        assert store.get(1).value == 20
        assert store.inserts == 1  # upsert of existing is not an insert

    def test_delete_returns_record(self):
        store = PartitionStore(0)
        store.insert(Record(key=1, value=5))
        record = store.delete(1)
        assert record.value == 5
        assert 1 not in store

    def test_delete_missing_raises(self):
        store = PartitionStore(0)
        with pytest.raises(StorageError, match="cannot delete"):
            store.delete(1)

    def test_counters(self):
        store = PartitionStore(0)
        store.insert(Record(key=1))
        store.insert(Record(key=2))
        store.delete(1)
        assert store.inserts == 2
        assert store.deletes == 1

    def test_read_write_helpers(self):
        store = PartitionStore(0)
        store.insert(Record(key=1, value=10))
        assert store.read(1) == 10
        store.write(1, 42)
        assert store.read(1) == 42
        assert store.get(1).version == 1

    def test_keys_iterates_residents(self):
        store = PartitionStore(0)
        for key in (3, 1, 2):
            store.insert(Record(key=key))
        assert sorted(store.keys()) == [1, 2, 3]


def _state(store):
    return (
        len(store), list(store.keys()), list(store.rows()),
        store.inserts, store.deletes,
    )


class TestBulkLoad:
    def test_load_equals_one_insert_per_pair(self):
        store, expected = PartitionStore(0), PartitionStore(0)
        store.load([3, 1, 2], [30, 10, 20], 16)
        for key, value in ((3, 30), (1, 10), (2, 20)):
            expected.insert(Record(key=key, value=value, size_bytes=16))
        assert _state(store) == _state(expected)
        assert store.get(1).version == 0

    @pytest.mark.parametrize(
        "keys, values, size_bytes",
        [
            ([7, 8, 7], [1, 2, 3], 8),        # key repeated in the batch
            ([7, 2], [1, 2], 8),              # key already resident
            ([7, 8], [1, 2**63], 8),          # value past signed 64-bit
            ([7, 8], [1, "x"], 8),            # non-int value
            ([7, 2**63], [1, 2], 8),          # key past signed 64-bit
            ([7, 8], [1, 2], 2**63),          # size past signed 64-bit
            ([7, 8], [1], 8),                 # fewer values than keys
            ([7], [1, 2], 8),                 # more values than keys
        ],
    )
    def test_refused_batch_leaves_the_store_untouched(
        self, keys, values, size_bytes
    ):
        store = PartitionStore(0)
        store.insert(Record(key=1, value=11))
        store.insert(Record(key=2, value=22))
        store.delete(1)
        before = _state(store)
        with pytest.raises(StorageError):
            store.load(keys, values, size_bytes)
        assert _state(store) == before
        store.load([7, 8], [1, 2], 8)  # and is still loadable
        assert list(store.keys()) == [2, 7, 8]

    def test_load_appends_after_residents_and_still_compacts(self):
        store = PartitionStore(0)
        store.insert(Record(key=1, value=11))
        store.insert(Record(key=2, value=22))
        store.load(iter([5, 6, 7]), iter([55, 66, 77]), 8)
        assert list(store.keys()) == [1, 2, 5, 6, 7]
        assert store.inserts == 5
        # Swap-with-last across the loaded rows, then a fresh append.
        assert store.delete(2).value == 22
        assert store.delete(7).value == 77
        store.insert(Record(key=9, value=99))
        assert list(store.rows()) == [
            (1, 11, 0, 8), (5, 55, 0, 8), (6, 66, 0, 8), (9, 99, 0, 8),
        ]
        store.write(6, 67)
        assert (store.read(6), store.get(6).version) == (67, 1)
        assert store.read(5) == 55


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        schema = TableSchema(name="accounts", tuple_count=100)
        catalog.add_table(schema)
        assert catalog.table("accounts") is schema
        assert "accounts" in catalog

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(TableSchema(name="t", tuple_count=1))
        with pytest.raises(StorageError, match="already registered"):
            catalog.add_table(TableSchema(name="t", tuple_count=2))

    def test_unknown_table_raises(self):
        with pytest.raises(StorageError, match="unknown table"):
            Catalog().table("ghost")

    def test_schema_validation(self):
        with pytest.raises(StorageError):
            TableSchema(name="bad", tuple_count=-1)
        with pytest.raises(StorageError):
            TableSchema(name="bad", tuple_count=1, tuple_size_bytes=0)

    def test_contains_key(self):
        schema = TableSchema(name="t", tuple_count=10)
        assert schema.contains_key(0)
        assert schema.contains_key(9)
        assert not schema.contains_key(10)
        assert not schema.contains_key(-1)

    def test_tables_in_registration_order(self):
        catalog = Catalog()
        catalog.add_table(TableSchema(name="b", tuple_count=1))
        catalog.add_table(TableSchema(name="a", tuple_count=1))
        assert [t.name for t in catalog.tables()] == ["b", "a"]
