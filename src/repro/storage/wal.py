"""Per-node write-ahead logging and crash recovery.

The paper's architecture gives the repartitioner access to "the system
logs" (§2.2), and its substrate (PostgreSQL) is a WAL-based engine.
This module supplies that durability substrate for the simulated nodes:

* :class:`WriteAheadLog` — an append-only, LSN-ordered record stream per
  node: BEGIN / WRITE / INSERT / DELETE / COMMIT / ABORT records plus
  periodic CHECKPOINT records carrying a full store snapshot;
* :func:`recover` — rebuilds a :class:`PartitionStore` from the log:
  start from the latest checkpoint, replay the effects of committed
  transactions, discard those of uncommitted/aborted ones (redo-only
  recovery, valid because effects are logged before they apply).

The live executor mutates stores directly (the simulation does not
crash mid-transaction by itself); tests and failure-injection tooling
use the WAL to verify that a node's state is always reconstructible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from typing import Any, Iterator, Optional

from ..errors import StorageError
from ..types import TupleKey, TxnId
from .partition_store import PartitionStore
from .record import Record, intern_payload


class WalRecordType(enum.Enum):
    """Kinds of log records."""

    BEGIN = "begin"
    WRITE = "write"
    INSERT = "insert"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record; ``payload`` depends on the type.

    * WRITE: ``(key, new_value)``
    * INSERT: ``(key, value, size_bytes)``
    * DELETE: ``key``
    * CHECKPOINT: ``{key: (value, version, size_bytes)}`` snapshot
    """

    lsn: int
    type: WalRecordType
    txn_id: Optional[TxnId] = None
    payload: Any = None


class WriteAheadLog:
    """Append-only log for one partition's store."""

    __slots__ = ("partition_id", "_records", "_lsn", "_open_txns")

    def __init__(self, partition_id: int) -> None:
        self.partition_id = partition_id
        self._records: list[WalRecord] = []
        self._lsn = count(1)
        self._open_txns: set[TxnId] = set()

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[WalRecord]:
        """Iterate all records in LSN order."""
        return iter(self._records)

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record (0 when empty)."""
        return self._records[-1].lsn if self._records else 0

    @property
    def open_transactions(self) -> frozenset[TxnId]:
        """Transactions with a BEGIN but no COMMIT/ABORT record yet."""
        return frozenset(self._open_txns)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(
        self,
        record_type: WalRecordType,
        txn_id: Optional[TxnId] = None,
        payload: Any = None,
    ) -> WalRecord:
        record = WalRecord(
            lsn=next(self._lsn), type=record_type, txn_id=txn_id,
            payload=payload,
        )
        self._records.append(record)
        return record

    def log_begin(self, txn_id: TxnId) -> WalRecord:
        """A transaction started touching this node."""
        if txn_id in self._open_txns:
            raise StorageError(f"transaction {txn_id} already open in WAL")
        self._open_txns.add(txn_id)
        return self._append(WalRecordType.BEGIN, txn_id)

    def log_write(
        self, txn_id: TxnId, key: TupleKey, new_value: int
    ) -> WalRecord:
        """A tuple overwrite by an open transaction."""
        self._require_open(txn_id)
        return self._append(WalRecordType.WRITE, txn_id, (key, new_value))

    def log_insert(
        self, txn_id: TxnId, record: Record
    ) -> WalRecord:
        """A replica insertion by an open transaction."""
        self._require_open(txn_id)
        return self._append(
            WalRecordType.INSERT,
            txn_id,
            (record.key, record.value, record.size_bytes),
        )

    def log_delete(self, txn_id: TxnId, key: TupleKey) -> WalRecord:
        """A replica deletion by an open transaction."""
        self._require_open(txn_id)
        return self._append(WalRecordType.DELETE, txn_id, key)

    def log_commit(self, txn_id: TxnId) -> WalRecord:
        """The transaction committed; its effects are durable."""
        self._require_open(txn_id)
        self._open_txns.discard(txn_id)
        return self._append(WalRecordType.COMMIT, txn_id)

    def log_abort(self, txn_id: TxnId) -> WalRecord:
        """The transaction aborted; its effects must not survive."""
        self._require_open(txn_id)
        self._open_txns.discard(txn_id)
        return self._append(WalRecordType.ABORT, txn_id)

    def log_checkpoint(self, store: PartitionStore) -> WalRecord:
        """Snapshot the store so recovery can skip older records.

        Only legal while no transaction is open (a *sharp* checkpoint):
        the executor applies writes to the store in place before commit,
        so a snapshot taken mid-transaction would embed uncommitted
        effects that recovery could then never roll back.

        Payload triples are interned: repeated checkpoints across
        crash/restart cycles (and tuples sharing a payload) reference
        one canonical ``(value, version, size_bytes)`` object instead of
        re-allocating identical tuples per snapshot.
        """
        if self._open_txns:
            raise StorageError(
                f"cannot checkpoint with open transaction(s) "
                f"{sorted(self._open_txns)}: the store snapshot would "
                f"capture their uncommitted writes"
            )
        snapshot = {
            key: intern_payload(value, version, size_bytes)
            for key, value, version, size_bytes in store.rows()
        }
        return self._append(WalRecordType.CHECKPOINT, payload=snapshot)

    def truncate_before_checkpoint(self) -> int:
        """Drop records older than the latest checkpoint; returns dropped count."""
        for index in range(len(self._records) - 1, -1, -1):
            if self._records[index].type is WalRecordType.CHECKPOINT:
                dropped = index
                self._records = self._records[index:]
                return dropped
        return 0

    def _require_open(self, txn_id: TxnId) -> None:
        if txn_id not in self._open_txns:
            raise StorageError(
                f"transaction {txn_id} has no BEGIN record in this WAL"
            )


def recover(log: WriteAheadLog) -> PartitionStore:
    """Rebuild the partition store from the log (redo-only recovery).

    1. Scan for the latest CHECKPOINT and start from its snapshot.
    2. First pass over the tail: collect the set of committed txn ids.
    3. Second pass: apply WRITE/INSERT/DELETE records of committed
       transactions in LSN order; everything else is discarded (an
       uncommitted transaction's effects never become visible).
    """
    records = list(log.records())
    start = 0
    store = PartitionStore(log.partition_id)
    for index in range(len(records) - 1, -1, -1):
        if records[index].type is WalRecordType.CHECKPOINT:
            start = index + 1
            for key, (value, version, size) in records[index].payload.items():
                store.upsert(
                    Record(key=key, value=value, size_bytes=size,
                           version=version)
                )
            break

    tail = records[start:]
    committed = {
        r.txn_id for r in tail if r.type is WalRecordType.COMMIT
    }
    for record in tail:
        if record.txn_id not in committed:
            continue
        if record.type is WalRecordType.WRITE:
            key, value = record.payload
            if key in store:
                store.write(key, value)
            else:
                # Value logging carries the whole new value, so a write
                # to a tuple that predates the log (no checkpoint taken
                # yet) can still be materialised.
                store.upsert(Record(key=key, value=value))
        elif record.type is WalRecordType.INSERT:
            key, value, size = record.payload
            store.upsert(Record(key=key, value=value, size_bytes=size))
        elif record.type is WalRecordType.DELETE:
            if record.payload in store:
                store.delete(record.payload)
    return store
