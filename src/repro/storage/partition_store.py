"""Per-partition in-memory tuple store.

Each data node hosts exactly one partition (as in the paper's 5-node /
5-partition EC2 setup).  The paper's tuples *are* 8-byte integers, so
the store keeps tuple state in flat parallel ``array`` columns of
machine ints indexed by a single key → slot dict, not in one object
per tuple:

* :meth:`PartitionStore.get`/:meth:`PartitionStore.peek` hand out a
  tiny :class:`RecordView` *flyweight* that resolves by key on every
  attribute access, so views stay correct across slot compaction and
  writes through a view land in the columns;
* deletes compact by swap-with-last, keeping the columns dense;
* ``keys()`` iterates in insertion order (the index dict's order).

Every stored field must fit a signed 64-bit int; a call that would
store anything else raises :class:`StorageError` and leaves the store
untouched — :meth:`PartitionStore.load`, the dataset build's one call
per store, holds a whole batch to that.  The store tracks
insert/delete counters so tests and benchmarks can assert on
repartitioning activity.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Optional

from ..errors import StorageError
from ..types import PartitionId, TupleKey
from .record import Record

_REFUSED = "tuple {}: {!r} does not fit the store's signed 64-bit columns"


def _set_cell(
    column: "array[int]", slot: int, key: TupleKey, field: int
) -> None:
    """One column write; the column itself refuses (before changing
    anything) a field it cannot hold."""
    try:
        column[slot] = field
    except (OverflowError, TypeError):
        raise StorageError(_REFUSED.format(key, field)) from None


class RecordView:
    """Flyweight view of one resident tuple.

    Resolves ``key`` → slot through the store's index on every access,
    so a held view survives slot compaction (swap-with-last deletes of
    *other* keys) and always reflects — and writes through to — the
    store's current columns.  Accessing a view whose tuple was deleted
    raises :class:`StorageError`, which would indicate a routing or
    undo-ordering bug.
    """

    __slots__ = ("_store", "key")

    def __init__(self, store: "PartitionStore", key: TupleKey) -> None:
        self._store = store
        self.key = key

    def _slot(self) -> int:
        slot = self._store._index.get(self.key)
        if slot is None:
            raise StorageError(
                f"tuple {self.key} no longer resident on partition "
                f"{self._store.partition_id} (stale record view)"
            )
        return slot

    @property
    def value(self) -> int:
        return self._store._values[self._slot()]

    @value.setter
    def value(self, value: int) -> None:
        _set_cell(self._store._values, self._slot(), self.key, value)

    @property
    def version(self) -> int:
        return self._store._versions[self._slot()]

    @version.setter
    def version(self, version: int) -> None:
        _set_cell(self._store._versions, self._slot(), self.key, version)

    @property
    def size_bytes(self) -> int:
        return self._store._sizes[self._slot()]

    @size_bytes.setter
    def size_bytes(self, size_bytes: int) -> None:
        _set_cell(self._store._sizes, self._slot(), self.key, size_bytes)

    def write(self, value: int) -> None:
        """Overwrite the payload, bumping the version (Record.write)."""
        slot = self._slot()
        store = self._store
        _set_cell(store._values, slot, self.key, value)
        store._versions[slot] += 1

    def copy(self) -> Record:
        """Detached :class:`Record` snapshot (migration/replica copies)."""
        slot = self._slot()
        store = self._store
        return Record(
            key=self.key,
            value=store._values[slot],
            size_bytes=store._sizes[slot],
            version=store._versions[slot],
        )

    def __repr__(self) -> str:
        return (
            f"RecordView(key={self.key}, value={self.value}, "
            f"size_bytes={self.size_bytes}, version={self.version})"
        )


class PartitionStore:
    """Holds the replicas of tuples resident on one partition.

    Tuple state lives in parallel ``array('q')`` columns plus one
    key → slot dict.
    """

    __slots__ = (
        "partition_id",
        "_index",
        "_keys",
        "_values",
        "_versions",
        "_sizes",
        "inserts",
        "deletes",
    )

    def __init__(self, partition_id: PartitionId) -> None:
        self.partition_id = partition_id
        self._index: dict[TupleKey, int] = {}
        self._keys = array("q")
        self._values = array("q")
        self._versions = array("q")
        self._sizes = array("q")
        self.inserts = 0
        self.deletes = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._index

    def keys(self) -> Iterator[TupleKey]:
        """Iterate over resident keys (insertion order)."""
        return iter(self._index)

    def rows(self) -> Iterator[tuple[TupleKey, int, int, int]]:
        """``(key, value, version, size_bytes)`` per tuple, in ``keys()``
        order — the whole-store scan, one index step per tuple."""
        values, versions, sizes = self._values, self._versions, self._sizes
        for key, slot in self._index.items():
            yield key, values[slot], versions[slot], sizes[slot]

    def get(self, key: TupleKey) -> RecordView:
        """Fetch a live view of the resident record for ``key``.

        Raises :class:`StorageError` if the tuple is not resident here —
        that indicates a routing bug, never a user error.
        """
        if key not in self._index:
            raise StorageError(
                f"tuple {key} not resident on partition {self.partition_id}"
            )
        return RecordView(self, key)

    def peek(self, key: TupleKey) -> Optional[RecordView]:
        """Fetch a live view if resident, else ``None``."""
        if key not in self._index:
            return None
        return RecordView(self, key)

    def _append(self, record: "Record | RecordView") -> None:
        slot = len(self._keys)
        try:
            self._keys.append(record.key)
            self._values.append(record.value)
            self._versions.append(record.version)
            self._sizes.append(record.size_bytes)
        except (OverflowError, TypeError):
            # Drop what the earlier columns took before one refused.
            for column in (
                self._keys, self._values, self._versions, self._sizes
            ):
                del column[slot:]
            raise StorageError(_REFUSED.format(record.key, record)) from None
        # Indexed last, so a rejected record is never visible.
        self._index[record.key] = slot
        self.inserts += 1

    def load(
        self, keys: Iterable[TupleKey], values: Iterable[int], size_bytes: int
    ) -> None:
        """Insert one new tuple per ``(key, value)`` pair, every one
        ``size_bytes`` wide at version 0 — the dataset build's entry
        point: one call per store instead of one ``insert`` per tuple.

        The whole batch is checked first (fields that fit the columns,
        equal lengths, no key repeated or already resident), so a
        refused batch leaves the store untouched.
        """
        try:
            key_column = array("q", keys)
            value_column = array("q", values)
            size_column = array("q", (size_bytes,)) * len(key_column)
        except (OverflowError, TypeError):
            raise StorageError(
                f"partition {self.partition_id}: a loaded batch holds a "
                "field outside the store's signed 64-bit columns"
            ) from None
        if len(value_column) != len(key_column):
            raise StorageError(
                f"partition {self.partition_id}: a loaded batch pairs "
                f"{len(key_column)} keys with {len(value_column)} values"
            )
        base = len(self._keys)
        slots = dict(zip(key_column, range(base, base + len(key_column))))
        if len(slots) != len(key_column):
            raise StorageError(
                f"partition {self.partition_id}: a loaded batch repeats a key"
            )
        if not self._index.keys().isdisjoint(slots):
            resident = next(key for key in slots if key in self._index)
            raise StorageError(
                f"tuple {resident} already resident on partition "
                f"{self.partition_id}"
            )
        self._keys.extend(key_column)
        self._values.extend(value_column)
        self._versions.extend(array("q", (0,)) * len(key_column))
        self._sizes.extend(size_column)
        self._index.update(slots)
        self.inserts += len(key_column)

    def insert(self, record: "Record | RecordView") -> None:
        """Insert a replica; duplicates are a consistency violation."""
        if record.key in self._index:
            raise StorageError(
                f"tuple {record.key} already resident on partition "
                f"{self.partition_id}"
            )
        self._append(record)

    def upsert(self, record: "Record | RecordView") -> None:
        """Insert or overwrite a replica (used when replaying migrations)."""
        slot = self._index.get(record.key)
        if slot is None:
            self._append(record)
            return
        old = self._values[slot], self._versions[slot], self._sizes[slot]
        try:
            _set_cell(self._values, slot, record.key, record.value)
            _set_cell(self._versions, slot, record.key, record.version)
            _set_cell(self._sizes, slot, record.key, record.size_bytes)
        except StorageError:
            self._values[slot], self._versions[slot], self._sizes[slot] = old
            raise

    def delete(self, key: TupleKey) -> Record:
        """Remove and return (a detached copy of) the replica of ``key``."""
        slot = self._index.pop(key, None)
        if slot is None:
            raise StorageError(
                f"cannot delete tuple {key}: not resident on partition "
                f"{self.partition_id}"
            )
        record = Record(
            key=key,
            value=self._values[slot],
            size_bytes=self._sizes[slot],
            version=self._versions[slot],
        )
        last = len(self._keys) - 1
        if slot != last:
            # Swap-with-last keeps the columns dense; held RecordViews
            # are unaffected because they resolve by key, not slot.
            moved_key = self._keys[last]
            self._keys[slot] = moved_key
            self._values[slot] = self._values[last]
            self._versions[slot] = self._versions[last]
            self._sizes[slot] = self._sizes[last]
            self._index[moved_key] = slot
        del self._keys[last]
        del self._values[last]
        del self._versions[last]
        del self._sizes[last]
        self.deletes += 1
        return record

    def read(self, key: TupleKey) -> int:
        """Read the payload of ``key``."""
        slot = self._index.get(key)
        if slot is None:
            raise StorageError(
                f"tuple {key} not resident on partition {self.partition_id}"
            )
        return self._values[slot]

    def write(self, key: TupleKey, value: int) -> None:
        """Write the payload of ``key`` (bumps the version)."""
        slot = self._index.get(key)
        if slot is None:
            raise StorageError(
                f"tuple {key} not resident on partition {self.partition_id}"
            )
        _set_cell(self._values, slot, key, value)
        self._versions[slot] += 1
