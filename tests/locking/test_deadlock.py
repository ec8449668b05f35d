"""Tests for the wait-for-graph deadlock detector."""

from repro.locking import DeadlockDetector, youngest_victim


class TestGraphMaintenance:
    def test_set_and_read_waits(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2, 3])
        assert detector.waits_of(1) == frozenset((2, 3))

    def test_self_edges_ignored(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [1, 2])
        assert detector.waits_of(1) == frozenset((2,))

    def test_clear_waits(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.clear_waits(1)
        assert detector.waits_of(1) == frozenset()

    def test_empty_blockers_removes_node(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(1, [])
        assert detector.waits_of(1) == frozenset()

    def test_remove_transaction_purges_both_directions(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(3, [1])
        detector.remove_transaction(1)
        assert detector.waits_of(1) == frozenset()
        assert detector.waits_of(3) == frozenset()


class TestCycleDetection:
    def test_no_cycle(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(2, [3])
        assert detector.find_cycle(1) is None

    def test_two_cycle(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(2, [1])
        cycle = detector.find_cycle(1)
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_long_cycle(self):
        detector = DeadlockDetector()
        for i in range(5):
            detector.set_waits(i, [(i + 1) % 5])
        cycle = detector.find_cycle(0)
        assert set(cycle) == {0, 1, 2, 3, 4}

    def test_cycle_not_reachable_from_start(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])  # 1 -> 2 (no cycle from 1)
        detector.set_waits(3, [4])
        detector.set_waits(4, [3])  # separate cycle
        assert detector.find_cycle(1) is None
        assert detector.find_cycle(3) is not None

    def test_check_counts_and_picks_victim(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [7])
        detector.set_waits(7, [1])
        victim = detector.check(1)
        assert victim == 7  # youngest
        assert detector.cycles_found == 1

    def test_check_without_cycle_returns_none(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        assert detector.check(1) is None

    def test_successors_visited_in_ascending_id_order(self):
        # 1 closes two cycles at once; the one through its smallest
        # successor is the one reported, whatever order edges arrived in.
        for blockers in ([5, 9], [9, 5]):
            detector = DeadlockDetector()
            detector.set_waits(1, blockers)
            detector.set_waits(5, [1])
            detector.set_waits(9, [1])
            assert detector.find_cycle(1) == (1, 5)
            assert detector.check(1) == 5

    def test_cycle_and_victim_ignore_set_layout(self):
        """Equal edges, different insertion/discard histories.

        The second detector's edge sets are grown past several resizes
        and emptied again (a set keeps its table on discard), so their
        hash tables differ from the first's and a plain ``for successor
        in set`` walks them in another order.
        """
        # 24, 16 and 8 collide modulo the smallest set table size (8),
        # so a small set iterates them in insertion order: 24 first.
        edges = {0: [24, 16, 8], 8: [0], 16: [0], 24: [0]}
        plain = DeadlockDetector()
        for waiter, blockers in edges.items():
            plain.set_waits(waiter, blockers)
        churned = DeadlockDetector()
        for waiter, blockers in edges.items():
            churned.set_waits(waiter, [*blockers, *range(1000, 1200)])
        for txn in range(1000, 1200):
            churned.remove_transaction(txn)
        for waiter, blockers in edges.items():
            assert churned.waits_of(waiter) == frozenset(blockers)
        for start in edges:
            assert churned.find_cycle(start) == plain.find_cycle(start)
            assert churned.check(start) == plain.check(start)
        assert plain.find_cycle(0) == (0, 8)

    def test_chain_longer_than_the_recursion_limit(self):
        detector = DeadlockDetector()
        length = 5_000
        for i in range(length):
            detector.set_waits(i, [i + 1])
        assert detector.find_cycle(0) is None
        detector.set_waits(length, [0])
        assert detector.find_cycle(0) == tuple(range(length + 1))
        assert detector.check(0) == length


class TestVictimPolicy:
    def test_youngest_is_max_id(self):
        assert youngest_victim((3, 9, 1)) == 9

    def test_custom_policy(self):
        detector = DeadlockDetector(victim_policy=min)
        detector.set_waits(1, [2])
        detector.set_waits(2, [1])
        assert detector.check(1) == 1


class TestWaitSites:
    def test_register_and_lookup(self):
        detector = DeadlockDetector()
        manager, key, event = object(), 5, object()
        detector.register_wait_site(1, manager, key, event)
        assert detector.wait_site(1) == (manager, key, event)

    def test_unregister(self):
        detector = DeadlockDetector()
        detector.register_wait_site(1, object(), 5, object())
        detector.unregister_wait_site(1)
        assert detector.wait_site(1) is None

    def test_remove_transaction_clears_site(self):
        detector = DeadlockDetector()
        detector.register_wait_site(1, object(), 5, object())
        detector.remove_transaction(1)
        assert detector.wait_site(1) is None
