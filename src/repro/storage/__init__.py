"""In-memory storage substrate: records, partition stores, and the catalog."""

from .catalog import Catalog, TableSchema
from .partition_store import PartitionStore, RecordView
from .record import DEFAULT_TUPLE_SIZE_BYTES, Record, intern_payload
from .wal import WalRecord, WalRecordType, WriteAheadLog, recover

__all__ = [
    "Catalog",
    "DEFAULT_TUPLE_SIZE_BYTES",
    "PartitionStore",
    "Record",
    "RecordView",
    "TableSchema",
    "WalRecord",
    "WalRecordType",
    "WriteAheadLog",
    "intern_payload",
    "recover",
]
