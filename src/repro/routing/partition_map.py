"""The lookup table mapping tuples to the partitions holding their replicas.

The paper's query router "maintains the mappings between data partitions
and their resident nodes" and routes each query accordingly; this class
is that mapping.  Replicas of a tuple always live on distinct partitions
(a paper assumption), and the first replica in the tuple's list is the
*primary* — the copy writes are routed to.

Generated key spaces are the consecutive integers ``[0, tuple_count)``
and the overwhelming majority of tuples have exactly one replica, so a
map built with ``capacity=tuple_count`` keeps those placements in one
flat ``array('i')`` column (4 bytes per key) indexed *by the key
itself*.  Only what a cell cannot hold lives in a dict of replica
lists (~150 bytes per key): dense keys with more or fewer than one
replica *spill* there and collapse back when they return to one, and
keys outside the dense range — every key when ``capacity`` is 0 —
stay there wholesale.  Results, error messages and check order are the
same for both representations.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import RoutingError
from ..types import PartitionId, TupleKey

#: Cell sentinel: the key is not mapped.
_UNMAPPED = -1
#: Cell sentinel: the key's replica list lives in ``_replicas``.
_SPILLED = -2
#: Largest partition id an ``array('i')`` cell holds.
_MAX_PARTITION_ID = (1 << 31) - 1


class PartitionMap:
    """Mutable key → replica-partition-list mapping.

    ``capacity`` fixes the dense key range ``[0, capacity)`` up front
    (the runner knows its tuple count).  Partition ids must fit a cell
    beside the sentinels — true of every id the cluster assigns.
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise RoutingError(
                f"map capacity cannot be negative, got {capacity}"
            )
        self.capacity = capacity
        #: Partition of each single-replica dense key, or a sentinel.
        self._primary = array("i", [_UNMAPPED]) * capacity
        #: Replica lists of spilled dense keys and all out-of-range keys.
        self._replicas: dict[TupleKey, list[PartitionId]] = {}
        self._count = 0
        #: Per-partition replica counts, maintained incrementally so
        #: :meth:`partition_sizes` is O(partitions) instead of
        #: O(tuples × replicas) — the optimizer's balance check calls it
        #: in a loop.
        self._sizes: dict[PartitionId, int] = {}
        self.version = 0

    def _is_dense(self, key: TupleKey) -> bool:
        return isinstance(key, int) and 0 <= key < self.capacity

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: TupleKey) -> bool:
        if self._is_dense(key):
            return self._primary[key] != _UNMAPPED
        return key in self._replicas

    def keys(self) -> Iterator[TupleKey]:
        """Iterate mapped keys: the dense range ascending (the column
        carries no insertion history), then the rest in insertion order."""
        primary = self._primary
        for key in range(self.capacity):
            if primary[key] != _UNMAPPED:
                yield key
        for key in self._replicas:
            if not self._is_dense(key):
                yield key

    def items(self) -> Iterator[tuple[TupleKey, tuple[PartitionId, ...]]]:
        """``(key, replicas_of(key))`` per mapped key in :meth:`keys` order."""
        for key in self.keys():
            yield key, self.replicas_of(key)

    def placements(self) -> Iterator[tuple[TupleKey, PartitionId]]:
        """``(key, partition)`` per replica, :meth:`items` flattened — the
        whole-map scan: one read of the dense column, no tuple per key."""
        replicas = self._replicas
        for key, cell in enumerate(self._primary):
            if cell >= 0:
                yield key, cell
            elif cell == _SPILLED:
                for partition_id in replicas[key]:
                    yield key, partition_id
        for key, spilled in replicas.items():
            if not self._is_dense(key):
                for partition_id in spilled:
                    yield key, partition_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def replicas_of(self, key: TupleKey) -> tuple[PartitionId, ...]:
        """All partitions holding a replica of ``key`` (primary first)."""
        if self._is_dense(key):
            primary = self._primary[key]
            if primary >= 0:
                return (primary,)
        replicas = self._replicas.get(key)
        if replicas is None:
            raise RoutingError(f"tuple {key} is not mapped to any partition")
        return tuple(replicas)

    def primary_of(self, key: TupleKey) -> PartitionId:
        """The primary replica's partition."""
        # Reads the cell itself, not ``replicas_of(key)[0]``: planning
        # resolves every planned key through here.
        if isinstance(key, int) and 0 <= key < self.capacity:
            primary = self._primary[key]
            if primary >= 0:
                return primary
        replicas = self._replicas.get(key)
        if replicas is None:
            raise RoutingError(f"tuple {key} is not mapped to any partition")
        return replicas[0]

    def primaries_of(self, keys: Iterable[TupleKey]) -> list[PartitionId]:
        """:meth:`primary_of` each of ``keys``, in order — one call per
        batch for the planners, which resolve every key of a plan."""
        primary, capacity, resolve = self._primary, self.capacity, self.primary_of
        return [
            primary[key]
            if isinstance(key, int)
            and 0 <= key < capacity
            and primary[key] >= 0
            else resolve(key)
            for key in keys
        ]

    def replica_count(self, key: TupleKey) -> int:
        """Number of replicas of ``key``."""
        return len(self.replicas_of(key))

    def partition_sizes(self) -> dict[PartitionId, int]:
        """Replica counts per partition (for balance checks); O(partitions)."""
        return dict(self._sizes)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @staticmethod
    def _check_partition(partition_id: PartitionId) -> None:
        if not 0 <= partition_id <= _MAX_PARTITION_ID:
            raise RoutingError(
                f"partition id must be in [0, {_MAX_PARTITION_ID}], "
                f"got {partition_id}"
            )

    def _size_delta(self, partition_id: PartitionId, delta: int) -> None:
        n = self._sizes.get(partition_id, 0) + delta
        if n <= 0:
            self._sizes.pop(partition_id, None)
        else:
            self._sizes[partition_id] = n

    def _put(self, key: TupleKey, replicas: list[PartitionId]) -> None:
        """Store ``key``'s replica list: in its cell when it is dense
        and has one replica, in the dict (spilling) otherwise."""
        if self._is_dense(key):
            if len(replicas) == 1:
                self._primary[key] = replicas[0]
                self._replicas.pop(key, None)
                return
            self._primary[key] = _SPILLED
        self._replicas[key] = replicas

    def assign(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Initial placement of ``key`` with a single replica."""
        self.assign_many((key,), (partition_id,))

    def assign_many(
        self, keys: Sequence[TupleKey], partition_ids: Sequence[PartitionId]
    ) -> None:
        """Initial placement of ``keys[i]`` on ``partition_ids[i]`` for
        every ``i``, in one call.  Every refusal — the lengths, a
        partition id, a key repeated or already mapped — is raised
        before the first cell is written."""
        if len(keys) != len(partition_ids) or len(set(keys)) != len(keys):
            raise RoutingError(
                f"cannot pair {len(keys)} keys ({len(set(keys))} distinct) "
                f"with {len(partition_ids)} partition ids"
            )
        sizes = Counter(partition_ids)
        for partition_id in sizes:
            self._check_partition(partition_id)
        primary, capacity, spilled = self._primary, self.capacity, self._replicas
        in_column = [
            isinstance(key, int) and 0 <= key < capacity for key in keys
        ]
        for key, dense in zip(keys, in_column):
            if primary[key] != _UNMAPPED if dense else key in spilled:
                raise RoutingError(f"tuple {key} is already mapped")
        for key, partition_id, dense in zip(keys, partition_ids, in_column):
            if dense:
                primary[key] = partition_id
            else:
                spilled[key] = [partition_id]
        for partition_id, n in sizes.items():
            self._size_delta(partition_id, n)
        self._count += len(keys)
        self.version += len(keys)  # as one ``assign`` per key would

    def assign_unmapped(
        self, key_count: int, partitions: Sequence[PartitionId]
    ) -> None:
        """:meth:`assign` every unmapped key ``k`` of ``range(key_count)``
        to ``partitions[k % len(partitions)]`` — cold-data placement by
        halving the dense column until a span counts as all unmapped (it
        is filled as one slice of the round-robin column) or all mapped:
        a few slice counts per run, so cheap for the one cold run a
        generated key space has and dearer than a loop for scattered holes.

        Every partition id is checked before the first cell is written.
        """
        if not partitions:
            raise RoutingError("need at least one partition to assign to")
        for partition_id in partitions:
            self._check_partition(partition_id)
        p = len(partitions)
        primary = self._primary
        dense = min(key_count, self.capacity)
        #: Cell ``k`` is what key ``k`` gets if it is unmapped.
        round_robin = array("i", partitions) * (dense // p + 1)
        #: Keys placed per position in ``partitions``, beside the
        #: ``everywhere`` each position got from whole turns of a run.
        placed = [0] * p
        everywhere = filled = 0
        spans = [(0, dense)]
        while spans:
            lo, hi = spans.pop()
            unmapped = primary[lo:hi].count(_UNMAPPED)
            if 0 < unmapped < hi - lo:  # mixed: look at each half
                spans += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
            elif unmapped:  # one run: a slice of the round-robin column
                primary[lo:hi] = round_robin[lo:hi]
                turns, rest = divmod(unmapped, p)
                everywhere += turns
                for key in range(lo, lo + rest):
                    placed[key % p] += 1
                filled += unmapped
        for partition_id, n in zip(partitions, placed):
            self._size_delta(partition_id, n + everywhere)
        self._count += filled
        self.version += filled  # as one ``assign`` per key would
        cold = [
            key for key in range(dense, key_count) if key not in self._replicas
        ]
        self.assign_many(cold, [partitions[key % p] for key in cold])

    def add_replica(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Record a new replica of ``key`` on ``partition_id``."""
        self._check_partition(partition_id)
        replicas = list(self.replicas_of(key))
        if partition_id in replicas:
            raise RoutingError(
                f"tuple {key} already has a replica on partition {partition_id}"
            )
        replicas.append(partition_id)
        self._put(key, replicas)
        self._size_delta(partition_id, +1)
        self.version += 1

    def remove_replica(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Drop the replica of ``key`` on ``partition_id``.

        Removing the last replica is a consistency violation and raises.
        """
        replicas = list(self.replicas_of(key))
        if partition_id not in replicas:
            raise RoutingError(
                f"tuple {key} has no replica on partition {partition_id}"
            )
        if len(replicas) == 1:
            raise RoutingError(
                f"cannot remove the last replica of tuple {key}"
            )
        replicas.remove(partition_id)
        self._put(key, replicas)
        self._size_delta(partition_id, -1)
        self.version += 1

    def move(
        self, key: TupleKey, source: PartitionId, destination: PartitionId
    ) -> None:
        """Atomically relocate the replica of ``key`` from source to dest."""
        self._check_partition(destination)
        replicas = list(self.replicas_of(key))
        if source not in replicas:
            raise RoutingError(
                f"tuple {key} has no replica on partition {source}"
            )
        if destination in replicas:
            raise RoutingError(
                f"tuple {key} already has a replica on partition {destination}"
            )
        replicas[replicas.index(source)] = destination
        self._put(key, replicas)
        self._size_delta(source, -1)
        self._size_delta(destination, +1)
        self.version += 1

    def set_replicas(
        self, key: TupleKey, replicas: Optional[Sequence[PartitionId]]
    ) -> None:
        """Install ``key``'s whole replica list (``None`` unmaps it).

        This is the :class:`~repro.routing.epoch.PartitionMapStore`'s
        delta-application hook; it skips the per-operation invariants
        (the store validated them at stage time) but keeps the size
        counters and version in step.
        """
        for pid in replicas or ():
            self._check_partition(pid)
        if key in self:
            for pid in self.replicas_of(key):
                self._size_delta(pid, -1)
            self._count -= 1
        if replicas is None:
            if self._is_dense(key):
                self._primary[key] = _UNMAPPED
            self._replicas.pop(key, None)
        else:
            self._put(key, list(replicas))
            self._count += 1
            for pid in replicas:
                self._size_delta(pid, +1)
        self.version += 1

    def copy(self) -> "PartitionMap":
        """Deep copy (used to freeze 'the original plan O' for costing)."""
        clone = PartitionMap()
        clone.capacity = self.capacity
        clone._primary = array("i", self._primary)
        clone._replicas = {k: list(v) for k, v in self._replicas.items()}
        clone._count = self._count
        clone._sizes = dict(self._sizes)
        clone.version = self.version
        return clone
