"""The incremental wait-for graph against the from-scratch reference.

Two worlds receive the same executor-shaped operations: the shipped
:class:`LockManager` (edges added at enqueue and at an upgrade jump,
never on grant, release or cancel) and :class:`ReferenceLockManager`
(every touched queue's edges recomputed from scratch and unioned in, the
algorithm that shipped before).  Several managers share one detector in
each world, as a cluster's nodes do.

*Executor-shaped* means what ``TransactionExecutor`` can do: a
transaction has at most one pending request; while blocked it can only
time out (``cancel``), be evicted or be torn down; once its request
failed (deadlock victim, node crash, timeout) its only next step is to
finish, and finishing releases at every manager in one synchronous step.
Other transactions run freely between a victim's eviction and its
finish, as they do in the simulator.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockAbort, NodeDownError
from repro.experiments import bench_scale, run_experiment
from repro.locking import DeadlockDetector, LockManager, LockMode
from repro.sim import Environment

from ..hypothesis_budget import examples
from ..locking.reference import ReferenceDetector, ReferenceLockManager

# A small universe keeps queues deep and cycles frequent.
TXNS = range(1, 8)
MANAGERS = 2
KEYS = 2
MODES = [LockMode.SHARED, LockMode.EXCLUSIVE, LockMode.EXCLUSIVE]
KINDS = ["acquire"] * 12 + [
    "release", "release", "cancel", "evict", "finish", "finish", "crash",
]

OPS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(TXNS),
        st.integers(0, MANAGERS - 1),
        st.integers(0, KEYS - 1),
        st.sampled_from(MODES),
    ),
    min_size=10,
    max_size=150,
)


class World:
    """One detector, several lock managers, and who waits where."""

    def __init__(
        self,
        manager_cls: type[LockManager] = LockManager,
        detector_cls: type[DeadlockDetector] = DeadlockDetector,
    ) -> None:
        self.env = Environment()
        self.detector = detector_cls()
        self.manager_cls = manager_cls
        self.managers = [
            manager_cls(self.env, self.detector) for _ in range(MANAGERS)
        ]
        #: txn -> (manager index, key, event) of its one pending request.
        self.pending: dict[int, tuple[int, int, object]] = {}

    def blocked(self, txn: int) -> bool:
        site = self.pending.get(txn)
        return site is not None and not site[2].triggered

    def failed(self, txn: int) -> bool:
        site = self.pending.get(txn)
        return site is not None and site[2].failed

    def apply(self, op: str, txn: int, index: int, key: int, mode) -> None:
        manager = self.managers[index]
        if op == "acquire":
            event = manager.acquire(txn, key, mode)
            event.defused = True
            self.pending[txn] = (index, key, event)
        elif op == "release":
            manager.release(txn, key)
        elif op == "cancel":  # lock-wait timeout
            at, waited_key, _ = self.pending.pop(txn)
            self.managers[at].cancel(txn, waited_key)
        elif op == "evict":
            at, waited_key, event = self.pending[txn]
            self.managers[at]._evict_waiter(txn, waited_key, event, (txn,))
        elif op == "finish":
            self.pending.pop(txn, None)
            for each in self.managers:
                each.release_all(txn)
        elif op == "crash":  # DataNode.crash: fail the waits, new table
            manager.fail_all_waiters(lambda t, _k: NodeDownError(index, t))
            self.managers[index] = self.manager_cls(self.env, self.detector)

    def edges(self) -> set[tuple[int, int]]:
        graph = self.detector._waits_for
        return {(w, b) for w, blockers in graph.items() for b in blockers}

    def outcomes(self) -> dict[int, str]:
        return {
            txn: "pending" if not e.triggered else "ok" if e.ok else "failed"
            for txn, (_, _, e) in self.pending.items()
        }


def run_both(ops):
    """Apply ``ops`` to both worlds, checking every invariant per step."""
    shipped = World()
    reference = World(ReferenceLockManager, ReferenceDetector)
    finished: set[int] = set()
    for op, txn, index, key, mode in ops:
        doomed = shipped.failed(txn)
        blocked = shipped.blocked(txn)
        if op in ("acquire", "release") and (blocked or doomed):
            continue  # a blocked or failed transaction is not running
        if op in ("cancel", "evict") and not blocked:
            continue
        for world in (shipped, reference):
            world.apply(op, txn, index, key, mode)
        if op == "acquire":
            finished.discard(txn)
        elif op == "finish":
            finished.add(txn)
        check_step(shipped, reference, finished)


def check_step(shipped: World, reference: World, finished: set[int]) -> None:
    assert shipped.outcomes() == reference.outcomes()
    detector = shipped.detector
    edges, oracle = shipped.edges(), reference.edges()

    # Same graph.  The one licensed difference: ``_evict_waiter`` purges
    # the victim while it still holds locks; until the victim finishes,
    # the reference re-adds "waiter -> victim" on its next refresh.  The
    # victim waits for nothing, so those edges end in a sink and no
    # search can tell the graphs apart (asserted below).
    victims = {
        txn for txn, (_, _, event) in shipped.pending.items()
        if event.failed and isinstance(event.value, DeadlockAbort)
    }
    assert edges <= oracle
    assert {blocker for _, blocker in oracle - edges} <= victims
    if not victims:
        assert edges == oracle

    # The reverse index is the exact transpose, with no empty sets.
    transpose = {
        (w, b) for b, waiters in detector._blocks.items() for w in waiters
    }
    assert transpose == edges
    assert all(detector._waits_for.values()) and all(detector._blocks.values())

    # No finished transaction on either side of an edge.
    assert not finished & {txn for edge in oracle for txn in edge}

    graph = nx.DiGraph(sorted(edges))
    on_a_cycle = {txn for cycle in nx.simple_cycles(graph) for txn in cycle}
    for start in TXNS:
        cycle = detector.find_cycle(start)
        assert cycle == reference.detector.find_cycle(start)
        reachable = {start}
        if start in graph:
            reachable |= nx.descendants(graph, start)
        # ``check`` reports a victim iff a cycle is reachable from start
        # (the first one met need not pass through start itself) ...
        assert (cycle is not None) == bool(reachable & on_a_cycle)
        # ... so a cycle through start is always reported.
        assert cycle is not None or start not in on_a_cycle
        victim = detector.check(start)
        if cycle is None:
            assert victim is None
        else:
            assert victim == max(cycle)
            assert all(
                graph.has_edge(a, b)
                for a, b in zip(cycle, cycle[1:] + cycle[:1])
            )


class TestIncrementalGraphMatchesReference:
    @settings(max_examples=examples(300), deadline=None)
    @given(OPS)
    def test_every_step_of_every_interleaving(self, ops):
        run_both(ops)

    def test_upgrade_jump_adds_edges_from_every_queued_waiter(self):
        ops = [
            ("acquire", 1, 0, 0, LockMode.SHARED),
            ("acquire", 2, 0, 0, LockMode.SHARED),
            ("acquire", 3, 0, 0, LockMode.EXCLUSIVE),
            ("acquire", 4, 0, 0, LockMode.SHARED),  # queued behind 3's X
            ("acquire", 1, 0, 0, LockMode.EXCLUSIVE),  # upgrade: jumps
        ]
        run_both(ops)
        world = World()
        for op in ops:
            world.apply(*op)
        assert world.detector.waits_of(1) == {2}
        assert world.detector.waits_of(3) == {1, 2}
        assert world.detector.waits_of(4) == {1, 3}

    def test_in_place_upgrade_blocks_the_queued_shared_requests(self):
        # Found by the interleaving test: 2's S is queued behind 3's X and
        # compatible with 1's S.  1 upgrades in place (sole holder), 3
        # times out: 2 now waits on 1 alone, and the graph must say so.
        ops = [
            ("acquire", 1, 0, 0, LockMode.SHARED),
            ("acquire", 3, 0, 0, LockMode.EXCLUSIVE),
            ("acquire", 2, 0, 0, LockMode.SHARED),
            ("acquire", 1, 0, 0, LockMode.EXCLUSIVE),
            ("cancel", 3, 0, 0, None),
        ]
        run_both(ops)
        world = World()
        for op in ops:
            world.apply(*op)
        assert world.managers[0].holds(1, 0) is LockMode.EXCLUSIVE
        assert 1 in world.detector.waits_of(2)

    def test_victim_in_limbo_is_the_only_licensed_difference(self):
        # 2 waits on 1 (key 0 at manager 0); 1 is evicted elsewhere while
        # still holding key 0; 3 then queues on key 0 and the reference
        # refresh re-adds 2 -> 1.  1 is a sink until it finishes.
        run_both([
            ("acquire", 1, 0, 0, LockMode.EXCLUSIVE),
            ("acquire", 2, 0, 0, LockMode.EXCLUSIVE),
            ("acquire", 4, 1, 0, LockMode.EXCLUSIVE),
            ("acquire", 1, 1, 0, LockMode.EXCLUSIVE),
            ("evict", 1, 0, 0, None),
            ("acquire", 3, 0, 0, LockMode.EXCLUSIVE),
            ("finish", 1, 0, 0, None),
        ])


class TestFullRunMatchesReference:
    def test_contended_cell_digest(self, monkeypatch):
        """A whole contended cell simulates the same with either graph."""
        config = bench_scale(
            "Hybrid", "zipf", "high", seed=3,
            warmup_intervals=2, measure_intervals=8,
        )
        shipped = run_experiment(config)
        monkeypatch.setattr(
            "repro.cluster.node.LockManager", ReferenceLockManager
        )
        monkeypatch.setattr(
            "repro.cluster.cluster.DeadlockDetector", ReferenceDetector
        )
        reference = run_experiment(config)
        assert sum(
            r.aborted_by_cause.get("deadlock", 0) for r in shipped.intervals
        ) > 0
        assert [dataclasses.asdict(r) for r in shipped.intervals] == [
            dataclasses.asdict(r) for r in reference.intervals
        ]
