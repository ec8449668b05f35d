"""Property-based tests: epoch delta-log and staged-delta invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import PartitionMap, PartitionMapStore

from ..hypothesis_budget import examples

PARTITIONS = [0, 1, 2, 3]
KEYS = list(range(10))

#: One staged mutation: (action, key, partition-ish args).
mutation = st.tuples(
    st.sampled_from(["add", "remove", "move"]),
    st.sampled_from(KEYS),
    st.sampled_from(PARTITIONS),
    st.sampled_from(PARTITIONS),
)

#: A run is a list of stages; each stage is a list of mutations followed
#: by a publish/discard decision.
stage_scripts = st.lists(
    st.tuples(st.lists(mutation, max_size=8), st.booleans()),
    max_size=10,
)


def fresh_store(max_delta_log: int = 1024) -> PartitionMapStore:
    pmap = PartitionMap()
    for key in KEYS:
        pmap.assign(key, key % len(PARTITIONS))
    return PartitionMapStore(pmap, max_delta_log=max_delta_log)


def run_script(store: PartitionMapStore, script) -> None:
    """Drive the store through staged mutations, ignoring invalid ones."""
    for mutations, should_publish in script:
        stage = store.begin_stage()
        for action, key, p1, p2 in mutations:
            try:
                if action == "add":
                    stage.add_replica(key, p1)
                elif action == "remove":
                    stage.remove_replica(key, p1)
                else:
                    stage.mark_moving(key)
                    stage.move(key, p1, p2)
            except RoutingError:
                pass  # invalid deltas must be rejected, not staged
        if should_publish:
            store.publish(stage)
        else:
            store.discard(stage)


def snapshot(view) -> dict:
    return {key: tuple(view.replicas_of(key)) for key in KEYS}


class TestDeltaLogReplay:
    @settings(max_examples=examples(150), deadline=None)
    @given(stage_scripts)
    def test_replay_from_epoch_zero_reconstructs_published_map(self, script):
        """Applying every logged delta to the initial map, in log order,
        lands exactly on the published live map."""
        store = fresh_store()
        initial = snapshot(store)
        run_script(store, script)
        replayed = dict(initial)
        for transition in store.delta_log():
            for delta in transition.deltas:
                assert replayed.get(delta.key) == delta.before
                if delta.after is None:
                    replayed.pop(delta.key, None)
                else:
                    replayed[delta.key] = delta.after
        assert replayed == snapshot(store)

    @settings(max_examples=examples(150), deadline=None)
    @given(stage_scripts)
    def test_transition_epoch_ids_are_contiguous(self, script):
        store = fresh_store()
        run_script(store, script)
        ids = [t.epoch_id for t in store.delta_log()]
        assert ids == list(range(1, store.epoch_id + 1))

    @settings(max_examples=examples(100), deadline=None)
    @given(stage_scripts)
    def test_pinned_epoch_zero_always_reads_initial_map(self, script):
        store = fresh_store()
        initial = snapshot(store)
        pinned = store.pin()
        run_script(store, script)
        assert snapshot(pinned) == initial


class TestReplicaIntegrity:
    @settings(max_examples=examples(150), deadline=None)
    @given(stage_scripts)
    def test_no_duplicate_replicas_ever_published(self, script):
        """Across any interleaving of staged deltas, neither the live map
        nor any logged delta ever holds a duplicated replica, and every
        key keeps at least one replica."""
        store = fresh_store()
        run_script(store, script)
        for key in KEYS:
            replicas = store.replicas_of(key)
            assert len(replicas) >= 1
            assert len(set(replicas)) == len(replicas)
        for transition in store.delta_log():
            for delta in transition.deltas:
                for value in (delta.before, delta.after):
                    if value is not None:
                        assert len(set(value)) == len(value)

    @settings(max_examples=examples(100), deadline=None)
    @given(stage_scripts)
    def test_no_moving_marks_survive_closed_stages(self, script):
        store = fresh_store()
        run_script(store, script)
        assert store.moving_keys() == frozenset()
