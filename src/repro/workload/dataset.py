"""Initial data placement and store loading (paper §4.1).

The experiments vary α — the fraction of tuples that must be
repartitioned.  Before repartitioning, an α-fraction of transaction
types are *distributed*: their 5 tuples are spread round-robin over the
partitions, so running them costs 2·C.  The remaining types are already
collocated.  After deploying the plan, every type is collocated — i.e.
α percent of the normal transactions turn from distributed into
non-distributed, exactly the paper's setup.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..cluster.cluster import Cluster
from ..errors import ConfigError, StorageError
from ..routing.partition_map import PartitionMap
from ..storage.partition_store import PartitionStore
from ..types import PartitionId, TupleKey
from .profile import TransactionType, WorkloadProfile


@dataclass(frozen=True)
class PlacementConfig:
    """Initial placement parameters."""

    #: Fraction of transaction types initially distributed (the paper's α).
    alpha: float = 1.0
    #: Tuple payload size (paper: 8 bytes).
    tuple_size_bytes: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1]: {self.alpha}")
        if self.tuple_size_bytes <= 0:
            raise ConfigError("tuple size must be positive")


def choose_distributed_types(
    profile: WorkloadProfile, alpha: float, rng: random.Random
) -> set[int]:
    """Select exactly ⌊α·n⌉ types (uniformly at random) to be distributed.

    Selection is independent of frequency, so the *instance mass* that is
    distributed is also ≈ α for both Uniform and Zipf populations.
    """
    n = len(profile.types)
    count = round(alpha * n)
    type_ids = [t.type_id for t in profile.types]
    if count >= n:
        return set(type_ids)
    return set(rng.sample(type_ids, count))


def choose_distributed_type_ids(
    type_count: int, alpha: float, rng: random.Random
) -> set[int]:
    """:func:`choose_distributed_types` for the canonical id space.

    Generated populations number their types ``0..n-1``
    (:func:`~repro.workload.generator.iter_profile_types`), so the
    streaming assembly path can sample the distributed set from the
    count alone — ``random.sample`` draws identically from ``range(n)``
    and from an equal list of ids, so this matches the profile-based
    selection bit for bit.
    """
    count = round(alpha * type_count)
    if count >= type_count:
        return set(range(type_count))
    return set(rng.sample(range(type_count), count))


def initial_placement(
    profile: Iterable[TransactionType],
    partitions: Sequence[PartitionId],
    distributed_type_ids: set[int],
    pmap: Optional[PartitionMap] = None,
) -> PartitionMap:
    """Place every profiled key: distributed types spread, others collocated.

    * A distributed type's keys go round-robin over all partitions,
      starting at ``type_id mod P`` (so load stays balanced).
    * A collocated type's keys all land on partition ``type_id mod P``.

    ``profile`` may be a :class:`WorkloadProfile` or any iterable of
    types (e.g. the streaming generator the cluster-scale presets use).
    ``pmap`` is the empty map to fill — the runner passes one whose
    dense ``capacity`` covers the generated key space.
    """
    if not partitions:
        raise ConfigError("need at least one partition")
    if pmap is None:
        pmap = PartitionMap()
    elif len(pmap):
        raise ConfigError("initial placement requires an empty partition map")
    p = len(partitions)
    keys: list[TupleKey] = []
    homes: list[PartitionId] = []
    for ttype in profile:
        first = ttype.type_id % p
        if ttype.type_id in distributed_type_ids and p > 1:
            homes += [
                partitions[(first + offset) % p]
                for offset in range(len(ttype.keys))
            ]
        else:
            homes += [partitions[first]] * len(ttype.keys)
        keys += ttype.keys
    pmap.assign_many(keys, homes)
    return pmap


def place_unprofiled_keys(
    pmap: PartitionMap,
    tuple_count: int,
    partitions: Sequence[PartitionId],
) -> None:
    """Round-robin any keys no transaction type touches (cold data)."""
    if not partitions:
        raise ConfigError("need at least one partition")
    pmap.assign_unmapped(tuple_count, partitions)


def load_placement(
    pmap: PartitionMap,
    store_of: Callable[[PartitionId], PartitionStore],
    size_bytes: int,
    rng: random.Random,
) -> int:
    """Materialise one record per ``(key, replica)`` of the map in the
    store ``store_of`` names for the replica's partition.

    Payloads are drawn from ``rng`` once per record in ``pmap.items()``
    order; each store then takes its records in one
    :meth:`~repro.storage.partition_store.PartitionStore.load`.
    Returns the number of records loaded.

    The draw is ``rng.randrange(1_000_000)`` — same values, same state
    left in ``rng`` — spelled out as the algorithm CPython runs for it
    (``Random._randbelow_with_getrandbits``: 20-bit draws, one at or
    past the bound rejected and redrawn), because ``randrange`` reaches
    ``getrandbits`` through three Python calls and that ladder, once per
    tuple, cost more than the rest of the build.  ``tests/partitioning/
    test_bulk_equivalence.py`` pins the two equal, so a Python that
    changes the algorithm fails there.
    """
    # Per partition, the keys and payloads bound for it as machine-int
    # columns (16 bytes a tuple; boxed ints would be several times that
    # for the length of a million-tuple build).
    batches: dict[PartitionId, tuple[array[int], array[int]]] = {}
    getrandbits = rng.getrandbits
    for key, pid in pmap.placements():
        batch = batches.get(pid)
        if batch is None:
            batch = batches[pid] = (array("q"), array("q"))
        try:
            batch[0].append(key)
        except (OverflowError, TypeError):
            raise StorageError(
                f"tuple {key!r} does not fit a store's signed 64-bit "
                "key column"
            ) from None
        value = getrandbits(20)
        while value >= 1_000_000:
            value = getrandbits(20)
        batch[1].append(value)
    loaded = 0
    while batches:  # each batch is dropped as its store takes a copy
        pid, (keys, values) = batches.popitem()
        store_of(pid).load(keys, values, size_bytes)
        loaded += len(keys)
    return loaded


def load_stores(
    cluster: Cluster,
    pmap: PartitionMap,
    config: PlacementConfig,
    rng: random.Random,
) -> int:
    """Materialise records on the nodes according to the map.

    Returns the number of records loaded.
    """
    return load_placement(
        pmap,
        lambda pid: cluster.node_for_partition(pid).store,
        config.tuple_size_bytes,
        rng,
    )


def verify_placement(cluster: Cluster, pmap: PartitionMap) -> bool:
    """Check stores and map agree (used by tests and failure injection)."""
    return all(
        key in cluster.node_for_partition(pid).store
        for key, pid in pmap.placements()
    )
