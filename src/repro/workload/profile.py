"""Workload profiles: the distinct transaction types and their frequencies.

The paper characterises a workload by its *distinct transactions* (30,000
under the uniform distribution, 23,457 under Zipf with s = 1.16), each a
fixed set of 5 tuples accessed together, weighted by how often instances
of that type arrive.  Partitioning algorithms, Algorithm 1's benefit
computation, and the workload generator all consume this profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import ConfigError
from ..types import TupleKey


@dataclass(frozen=True)
class TransactionType:
    """One distinct transaction: a key set and a relative frequency."""

    type_id: int
    keys: tuple[TupleKey, ...]
    frequency: float

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigError(f"transaction type {self.type_id} has no keys")
        if len(set(self.keys)) != len(self.keys):
            raise ConfigError(
                f"transaction type {self.type_id} repeats a key: {self.keys}"
            )
        if self.frequency < 0:
            raise ConfigError(
                f"transaction type {self.type_id} has negative frequency"
            )


@dataclass
class WorkloadProfile:
    """The collection of transaction types making up a workload."""

    table: str
    types: list[TransactionType] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for ttype in self.types:
            if ttype.type_id in seen:
                raise ConfigError(f"duplicate type id {ttype.type_id}")
            seen.add(ttype.type_id)
        self._by_id: dict[int, TransactionType] = {
            t.type_id: t for t in self.types
        }
        # Lazily-built derived view.  The profile is immutable after
        # construction (``_by_id`` is already built once here), so the
        # cache stays valid for the object's lifetime.
        self._key_index: Optional[dict[TupleKey, list[TransactionType]]] = None

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[TransactionType]:
        return iter(self.types)

    def type(self, type_id: int) -> TransactionType:
        """Look up a type by id."""
        ttype = self._by_id.get(type_id)
        if ttype is None:
            raise ConfigError(f"unknown transaction type {type_id}")
        return ttype

    @property
    def total_frequency(self) -> float:
        """Sum of all type frequencies (normalising constant)."""
        return math.fsum(t.frequency for t in self.types)

    def probability_of(self, type_id: int) -> float:
        """Arrival probability of one type."""
        total = self.total_frequency
        if total == 0:
            return 0.0
        return self.type(type_id).frequency / total

    def all_keys(self) -> set[TupleKey]:
        """Every key referenced by any type."""
        keys: set[TupleKey] = set()
        for ttype in self.types:
            keys.update(ttype.keys)
        return keys

    def types_accessing(self, key: TupleKey) -> list[TransactionType]:
        """All types whose key set contains ``key`` (profile order)."""
        return list(self.key_index().get(key, ()))

    def key_index(self) -> dict[TupleKey, list[TransactionType]]:
        """Inverted index key → types (profile order), built lazily once.

        The returned dict is shared across calls — treat it as
        read-only.
        """
        index = self._key_index
        if index is None:
            index = {}
            for ttype in self.types:
                for key in ttype.keys:
                    index.setdefault(key, []).append(ttype)
            self._key_index = index
        return index

    def key_heat(self, key: TupleKey) -> float:
        """Summed frequency of the types touching ``key`` (0 if none)."""
        return sum(t.frequency for t in self.key_index().get(key, ()))

    def hottest(self, n: Optional[int] = None) -> list[TransactionType]:
        """Types sorted by descending frequency (ties by id for determinism)."""
        ordered = sorted(
            self.types, key=lambda t: (-t.frequency, t.type_id)
        )
        return ordered if n is None else ordered[:n]
