"""Tests for epoch-versioned partition maps (store, stages, epochs)."""

import pytest

from repro.errors import EpochError, RoutingError
from repro.routing import (
    MapDelta,
    MigrationState,
    PartitionMap,
    PartitionMapStore,
)


def build_store(max_delta_log: int = 1024) -> PartitionMapStore:
    pmap = PartitionMap()
    for key in range(6):
        pmap.assign(key, key % 3)
    return PartitionMapStore(pmap, max_delta_log=max_delta_log)


@pytest.fixture
def store() -> PartitionMapStore:
    return build_store()


class TestPublish:
    def test_publish_bumps_epoch_and_applies(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        epoch = store.publish(stage)
        assert epoch.epoch_id == 1
        assert store.epoch_id == 1
        assert store.primary_of(0) == 2
        assert store.publishes == 1

    def test_empty_publish_does_not_bump(self, store):
        stage = store.begin_stage()
        epoch = store.publish(stage)
        assert epoch.epoch_id == 0
        assert store.publishes == 0

    def test_no_op_deltas_elided(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        stage.move(0, 2, 0)  # net no change
        epoch = store.publish(stage)
        assert epoch.epoch_id == 0
        assert store.delta_log() == ()

    def test_closed_stage_rejected(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        store.publish(stage)
        with pytest.raises(EpochError, match="published"):
            stage.move(1, 1, 2)
        with pytest.raises(EpochError, match="published"):
            store.publish(stage)

    def test_foreign_stage_rejected(self, store):
        other = build_store()
        stage = other.begin_stage()
        with pytest.raises(EpochError, match="different store"):
            store.publish(stage)

    def test_publish_hook_fires(self, store):
        seen = []
        store.on_publish = seen.append
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        store.publish(stage)
        assert [e.epoch_id for e in seen] == [1]

    def test_delta_log_records_canonical_deltas(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 1)
        stage.add_replica(3, 2)
        store.publish(stage)
        (transition,) = store.delta_log()
        assert transition.epoch_id == 1
        assert transition.deltas == (
            MapDelta(key=0, before=(0,), after=(1,)),
            MapDelta(key=3, before=(0,), after=(0, 2)),
        )


class TestStageOverlay:
    def test_reads_see_staged_values(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        assert stage.primary_of(0) == 2
        assert store.primary_of(0) == 0  # live map untouched pre-publish

    def test_sequential_visibility_within_stage(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 1)
        with pytest.raises(RoutingError, match="no replica"):
            stage.move(0, 0, 2)  # source already moved away
        stage.move(0, 1, 2)
        store.publish(stage)
        assert store.primary_of(0) == 2

    def test_validation_matches_partition_map(self, store):
        stage = store.begin_stage()
        with pytest.raises(RoutingError, match="already mapped"):
            stage.assign(0, 1)
        with pytest.raises(RoutingError, match="already has a replica"):
            stage.add_replica(0, 0)
        with pytest.raises(RoutingError, match="last replica"):
            stage.remove_replica(0, 0)

    def test_discard_is_clean_and_idempotent(self, store):
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        stage.mark_moving(0)
        store.discard(stage)
        store.discard(stage)
        assert store.primary_of(0) == 0
        assert store.epoch_id == 0
        assert store.migration_state(0) is MigrationState.STABLE


class TestEpochSnapshots:
    def test_pinned_epoch_reads_old_placement(self, store):
        pinned = store.pin()
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        store.publish(stage)
        assert pinned.replicas_of(0) == (0,)
        assert store.current_epoch.replicas_of(0) == (2,)
        store.unpin(pinned)

    def test_snapshot_across_multiple_epochs(self, store):
        pinned = store.pin()
        for target in (1, 2):
            stage = store.begin_stage()
            stage.move(3, store.primary_of(3), target)
            store.publish(stage)
        assert pinned.primary_of(3) == 0
        assert store.current_epoch.primary_of(3) == 2

    def test_snapshot_len_keys_and_sizes(self, store):
        pinned = store.pin()
        before_sizes = pinned.partition_sizes()
        stage = store.begin_stage()
        stage.assign(100, 0)
        stage.move(1, 1, 2)
        store.publish(stage)
        assert len(pinned) == 6
        assert 100 not in pinned
        assert sorted(pinned.keys()) == list(range(6))
        assert pinned.partition_sizes() == before_sizes
        assert len(store.current_epoch) == 7
        assert 100 in store.current_epoch

    def test_current_epoch_fast_path(self, store):
        current = store.current_epoch
        assert current.replicas_of(0) == (0,)

    def test_primaries_of_current_and_stale(self, store):
        pinned = store.pin()
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        stage.assign(100, 1)
        store.publish(stage)
        current = store.current_epoch
        assert current.primaries_of([100, 0, 1]) == [1, 2, 1]
        assert pinned.primaries_of([0, 1]) == [0, 1]
        assert pinned.primaries_of(iter([1])) == [1]
        for epoch, missing in ((pinned, 100), (current, 101)):
            assert missing not in epoch
            with pytest.raises(RoutingError, match=f"tuple {missing} is not"):
                epoch.primaries_of([0, missing])
            with pytest.raises(RoutingError, match=f"tuple {missing} is not"):
                epoch.primary_of(missing)

    def test_unpin_unknown_epoch_raises(self, store):
        epoch = store.current_epoch
        with pytest.raises(EpochError, match="not pinned"):
            store.unpin(epoch)


class TestTrimming:
    def publish_n(self, store, n, key=0):
        for _ in range(n):
            stage = store.begin_stage()
            primary = store.primary_of(key)
            stage.move(key, primary, (primary + 1) % 3)
            store.publish(stage)

    def test_log_bounded(self):
        store = build_store(max_delta_log=3)
        self.publish_n(store, 10)
        assert len(store.delta_log()) == 3

    def test_expired_epoch_raises(self):
        store = build_store(max_delta_log=2)
        ancient = store.current_epoch  # epoch 0, unpinned
        self.publish_n(store, 5)
        with pytest.raises(EpochError, match="expired"):
            ancient.replicas_of(0)

    def test_pin_blocks_trimming(self):
        store = build_store(max_delta_log=2)
        pinned = store.pin()
        self.publish_n(store, 8)
        assert len(store.delta_log()) == 8  # kept alive by the pin
        assert pinned.replicas_of(0) == (0,)
        store.unpin(pinned)
        assert len(store.delta_log()) == 2  # trimmed on release


class TestMigrationStates:
    def test_moving_while_staged(self, store):
        stage = store.begin_stage(owner=42)
        stage.mark_moving(0)
        assert store.migration_state(0) is MigrationState.MOVING
        assert store.moving_keys() == frozenset({0})

    def test_refcounted_across_stages(self, store):
        first = store.begin_stage()
        second = store.begin_stage()
        first.mark_moving(0)
        second.mark_moving(0)
        store.discard(first)
        assert store.migration_state(0) is MigrationState.MOVING
        store.discard(second)
        assert store.migration_state(0) is MigrationState.STABLE

    def test_moved_tombstone_after_publish(self, store):
        stage = store.begin_stage()
        stage.mark_moving(0)
        stage.move(0, 0, 2)
        store.publish(stage)
        assert store.migration_state(0) is MigrationState.MOVED
        tombstone = store.tombstone_of(0)
        assert (tombstone.source, tombstone.destination) == (0, 2)
        assert tombstone.epoch_id == 1

    def test_replica_changes_leave_no_tombstone(self, store):
        stage = store.begin_stage()
        stage.add_replica(0, 1)
        store.publish(stage)
        assert store.tombstone_of(0) is None
        assert store.migration_state(0) is MigrationState.STABLE

    def test_tombstone_trimmed_with_log(self):
        store = build_store(max_delta_log=1)
        stage = store.begin_stage()
        stage.move(0, 0, 2)
        store.publish(stage)
        assert store.tombstone_of(0) is not None
        stage = store.begin_stage()
        stage.move(1, 1, 2)
        store.publish(stage)
        assert store.tombstone_of(0) is None  # its transition was trimmed
        assert store.tombstone_of(1) is not None
