"""Query routing: the partition lookup table, epoch-versioned map store,
query model, parser, and router."""

from .epoch import (
    EpochStage,
    EpochTransition,
    MapDelta,
    MapEpoch,
    MigrationState,
    MovedTombstone,
    PartitionMapStore,
)
from .parser import QueryParseError, extract_partition_attribute, parse_query, parse_transaction
from .partition_map import PartitionMap
from .query import Query
from .router import QueryRouter

__all__ = [
    "EpochStage",
    "EpochTransition",
    "MapDelta",
    "MapEpoch",
    "MigrationState",
    "MovedTombstone",
    "PartitionMap",
    "PartitionMapStore",
    "Query",
    "QueryParseError",
    "QueryRouter",
    "extract_partition_attribute",
    "parse_query",
    "parse_transaction",
]
