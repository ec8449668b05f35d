"""Tests for the partition lookup table."""

import pytest

from repro.errors import RoutingError
from repro.routing import PartitionMap


@pytest.fixture
def pmap():
    mapping = PartitionMap()
    for key in range(5):
        mapping.assign(key, key % 2)
    return mapping


class TestLookup:
    def test_assign_and_primary(self, pmap):
        assert pmap.primary_of(0) == 0
        assert pmap.primary_of(1) == 1

    def test_replicas_start_single(self, pmap):
        assert pmap.replicas_of(0) == (0,)
        assert pmap.replica_count(0) == 1

    def test_unknown_key_raises(self, pmap):
        with pytest.raises(RoutingError, match="not mapped"):
            pmap.primary_of(999)

    def test_contains_and_len(self, pmap):
        assert 0 in pmap
        assert 999 not in pmap
        assert len(pmap) == 5

    def test_partition_sizes(self, pmap):
        assert pmap.partition_sizes() == {0: 3, 1: 2}


class TestMutation:
    def test_double_assign_rejected(self, pmap):
        with pytest.raises(RoutingError, match="already mapped"):
            pmap.assign(0, 1)

    def test_add_replica(self, pmap):
        pmap.add_replica(0, 1)
        assert set(pmap.replicas_of(0)) == {0, 1}
        assert pmap.primary_of(0) == 0  # primary unchanged

    def test_duplicate_replica_rejected(self, pmap):
        with pytest.raises(RoutingError, match="already has a replica"):
            pmap.add_replica(0, 0)

    def test_remove_replica(self, pmap):
        pmap.add_replica(0, 1)
        pmap.remove_replica(0, 0)
        assert pmap.replicas_of(0) == (1,)

    def test_remove_last_replica_rejected(self, pmap):
        with pytest.raises(RoutingError, match="last replica"):
            pmap.remove_replica(0, 0)

    def test_remove_absent_replica_rejected(self, pmap):
        with pytest.raises(RoutingError, match="no replica"):
            pmap.remove_replica(0, 3)

    def test_move(self, pmap):
        pmap.move(0, 0, 4)
        assert pmap.primary_of(0) == 4

    def test_move_from_wrong_source_rejected(self, pmap):
        with pytest.raises(RoutingError, match="no replica"):
            pmap.move(0, 3, 4)

    def test_move_to_existing_replica_rejected(self, pmap):
        pmap.add_replica(0, 1)
        with pytest.raises(RoutingError, match="already has a replica"):
            pmap.move(0, 0, 1)

    def test_version_bumps_on_every_mutation(self, pmap):
        version = pmap.version
        pmap.add_replica(0, 1)
        pmap.move(1, 1, 0)
        pmap.remove_replica(0, 1)
        assert pmap.version == version + 3


class TestCopy:
    def test_copy_is_deep(self, pmap):
        clone = pmap.copy()
        pmap.move(0, 0, 4)
        assert clone.primary_of(0) == 0
        assert pmap.primary_of(0) == 4

    def test_copy_preserves_version(self, pmap):
        assert pmap.copy().version == pmap.version


class TestBulk:
    def test_items_is_keys_order_with_replicas(self):
        pmap = PartitionMap(capacity=4)
        for key, pid in ((9, 2), (3, 1), (0, 0), (7, 1)):
            pmap.assign(key, pid)
        pmap.add_replica(3, 0)  # spills inside the dense range
        pmap.add_replica(7, 2)
        assert list(pmap.items()) == [
            (0, (0,)), (3, (1, 0)), (9, (2,)), (7, (1, 2)),
        ]
        assert [key for key, _ in pmap.items()] == list(pmap.keys())

    def test_primaries_of_matches_primary_of(self):
        pmap = PartitionMap(capacity=4)
        for key, pid in ((0, 0), (3, 1), (9, 2)):
            pmap.assign(key, pid)
        pmap.add_replica(3, 0)
        assert pmap.primaries_of([9, 3, 0, 3]) == [2, 1, 0, 1]
        assert pmap.primaries_of(iter(())) == []
        for missing in (1, 4, -1):
            with pytest.raises(RoutingError, match=f"tuple {missing} is not"):
                pmap.primaries_of([0, missing])

    def test_assign_unmapped_skips_spilled_and_mapped_cells(self):
        pmap = PartitionMap(capacity=6)
        pmap.assign(1, 7)
        pmap.assign(4, 7)
        pmap.add_replica(4, 8)  # a spilled cell is mapped, not a gap
        version = pmap.version
        pmap.assign_unmapped(6, [0, 1, 2])
        assert dict(pmap.items()) == {
            0: (0,), 1: (7,), 2: (2,), 3: (0,), 4: (7, 8), 5: (2,),
        }
        assert len(pmap) == 6
        assert pmap.partition_sizes() == {0: 2, 2: 2, 7: 2, 8: 1}
        assert pmap.version == version + 4  # one per key placed

    def test_assign_unmapped_past_capacity(self):
        pmap = PartitionMap(capacity=2)
        pmap.assign(3, 9)
        pmap.assign_unmapped(5, [0, 1])
        assert dict(pmap.items()) == {
            0: (0,), 1: (1,), 2: (0,), 3: (9,), 4: (0,),
        }
        assert list(pmap.keys()) == [0, 1, 3, 2, 4]
        assert pmap.partition_sizes() == {0: 3, 1: 1, 9: 1}
        # Fewer keys than the dense range: the rest stays unmapped.
        short = PartitionMap(capacity=4)
        short.assign_unmapped(2, [5])
        assert list(short.keys()) == [0, 1]

    @pytest.mark.parametrize("partitions", [[0, -1], [0, 1 << 31], []])
    def test_assign_unmapped_checks_partitions_before_writing(
        self, partitions
    ):
        pmap = PartitionMap(capacity=3)
        pmap.assign(1, 0)
        with pytest.raises(RoutingError):
            pmap.assign_unmapped(5, partitions)
        assert list(pmap.items()) == [(1, (0,))]
        assert (len(pmap), pmap.version) == (1, 1)
        assert pmap.partition_sizes() == {0: 1}
