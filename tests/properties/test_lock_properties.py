"""Property-based tests: 2PL lock-table invariants under random traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locking import DeadlockDetector, LockManager, LockMode
from repro.sim import Environment

from ..hypothesis_budget import examples

# A bounded universe keeps collisions frequent.
TXNS = st.integers(min_value=1, max_value=6)
KEYS = st.integers(min_value=0, max_value=4)
MODES = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), TXNS, KEYS, MODES),
        st.tuples(st.just("release"), TXNS, KEYS, st.none()),
        st.tuples(st.just("release_all"), TXNS, st.none(), st.none()),
        st.tuples(st.just("cancel"), TXNS, KEYS, st.none()),
    ),
    max_size=60,
)


def apply_actions(actions, with_detector=True):
    env = Environment()
    detector = DeadlockDetector() if with_detector else None
    manager = LockManager(env, detector)
    events = []
    for action, txn, key, mode in actions:
        if action == "acquire":
            events.append(manager.acquire(txn, key, mode))
        elif action == "release":
            manager.release(txn, key)
        elif action == "release_all":
            manager.release_all(txn)
        elif action == "cancel":
            manager.cancel(txn, key)
    for event in events:
        event.defused = True  # deadlock failures are expected here
    return manager


def holders_by_key(manager):
    return {key: manager.holders_of(key) for key in range(5)}


class TestLockInvariants:
    @settings(max_examples=examples(200), deadline=None)
    @given(ACTIONS)
    def test_at_most_one_exclusive_holder(self, actions):
        manager = apply_actions(actions)
        for _key, holders in holders_by_key(manager).items():
            exclusive = [
                t for t, m in holders.items() if m is LockMode.EXCLUSIVE
            ]
            assert len(exclusive) <= 1

    @settings(max_examples=examples(200), deadline=None)
    @given(ACTIONS)
    def test_exclusive_excludes_shared(self, actions):
        manager = apply_actions(actions)
        for _key, holders in holders_by_key(manager).items():
            modes = set(holders.values())
            if LockMode.EXCLUSIVE in modes:
                assert len(holders) == 1

    @settings(max_examples=examples(200), deadline=None)
    @given(ACTIONS)
    def test_release_all_leaves_no_trace(self, actions):
        manager = apply_actions(actions)
        for txn in range(1, 7):
            manager.release_all(txn)
        for key in range(5):
            assert manager.holders_of(key) == {}
            assert manager.queue_length(key) == 0

    @settings(max_examples=examples(150), deadline=None)
    @given(ACTIONS)
    def test_no_granted_event_left_pending(self, actions):
        """Whoever holds a lock must have had *a* grant event succeed.

        A transaction may legally hold S while a later S→X upgrade
        request is still waiting on co-holders, so the invariant is
        per-(txn, key) over *all* of its acquire events: at least one
        must have succeeded, not necessarily the most recent.
        """
        env = Environment()
        manager = LockManager(env, DeadlockDetector())
        grants = {}
        for action, txn, key, mode in actions:
            if action == "acquire":
                event = manager.acquire(txn, key, mode)
                event.defused = True
                grants.setdefault((txn, key), []).append(event)
            elif action == "release":
                manager.release(txn, key)
            elif action == "release_all":
                manager.release_all(txn)
            elif action == "cancel":
                manager.cancel(txn, key)
        for key in range(5):
            for txn in manager.holders_of(key):
                events = grants.get((txn, key))
                if events and not any(e.ok for e in events):
                    raise AssertionError(
                        f"txn {txn} holds {key} but no grant event succeeded"
                    )

    @settings(max_examples=examples(100), deadline=None)
    @given(ACTIONS)
    def test_detector_graph_never_keeps_finished_waiters(self, actions):
        env = Environment()
        detector = DeadlockDetector()
        manager = LockManager(env, detector)
        for action, txn, key, mode in actions:
            if action == "acquire":
                manager.acquire(txn, key, mode).defused = True
            elif action == "release":
                manager.release(txn, key)
            elif action == "release_all":
                manager.release_all(txn)
            elif action == "cancel":
                manager.cancel(txn, key)
        # Any transaction the detector still thinks is waiting must
        # genuinely be waiting at the manager.
        for txn in range(1, 7):
            if detector.waits_of(txn):
                assert manager.is_waiting(txn)
