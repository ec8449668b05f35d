"""Phantom-cycle census: which deadlock aborts were real cycles?

Measures, does not fix.  The wait-for graph keeps an edge until its
*waiter* stops waiting, so an edge can outlive its cause (the blocker
released the key under read-committed, or was granted and moved on).  A
cycle through such an edge is a phantom: nobody on it would have waited
forever.  ROADMAP item 2 owns changing which edges exist; this test pins
the classifier and the fact that it covers every abort.
"""

import pytest

from repro.experiments import bench_scale, run_experiment
from repro.locking import DeadlockDetector, LockManager, LockMode

from .reference import DeadlockCensus


@pytest.fixture
def census(monkeypatch):
    census = DeadlockCensus()
    monkeypatch.setattr(
        LockManager, "_evict_waiter", census.wrap(LockManager._evict_waiter)
    )
    return census


def test_every_deadlock_abort_of_a_contended_cell_is_classified(census):
    result = run_experiment(
        bench_scale(
            "Hybrid", "zipf", "high", seed=3,
            warmup_intervals=2, measure_intervals=8,
        )
    )
    recorded = sum(
        record.aborted_by_cause.get("deadlock", 0)
        for record in result.intervals
    )
    assert recorded > 0
    assert set(census.counts) <= {"real", "stale"}
    assert sum(census.counts.values()) == recorded


def test_two_manager_cycle_is_real(env, census):
    detector = DeadlockDetector()
    a, b = LockManager(env, detector), LockManager(env, detector)
    a.acquire(1, 0, LockMode.EXCLUSIVE)
    b.acquire(2, 0, LockMode.EXCLUSIVE)
    a.acquire(2, 0, LockMode.EXCLUSIVE)
    b.acquire(1, 0, LockMode.EXCLUSIVE).defused = True
    assert census.counts == {"real": 1}


def test_cycle_through_an_edge_that_outlived_its_cause_is_stale(env, census):
    detector = DeadlockDetector()
    a, b = LockManager(env, detector), LockManager(env, detector)
    a.acquire(1, 0, LockMode.SHARED)
    a.acquire(3, 0, LockMode.SHARED)
    b.acquire(2, 0, LockMode.EXCLUSIVE)
    waiting = a.acquire(2, 0, LockMode.EXCLUSIVE)  # 2 -> 1, 2 -> 3
    waiting.defused = True
    a.release(1, 0)  # read-committed early release; 2 still waits on 3
    assert detector.waits_of(2) == {1, 3}
    b.acquire(1, 0, LockMode.EXCLUSIVE)  # 1 -> 2 closes 1 -> 2 -> 1
    assert waiting.failed
    assert census.counts == {"stale": 1}
