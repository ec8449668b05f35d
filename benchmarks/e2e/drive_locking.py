"""Direct drive of ``repro.locking``: the one layer no other bench covers.

A standalone ``LockManager(Environment(), DeadlockDetector())`` where
``d`` transactions queue for X on one hot key and release in FIFO order.
One round is ``d`` acquires (the first granted, ``d - 1`` waiting) and
``d`` releases (each granting the next waiter): ``2 * d`` lock
operations.  With a linear wait graph the cost of one operation does not
depend on ``d``, so ``depth128_over_depth1`` stays near 1; with every
waiter holding an edge to every request ahead of it, it grows with
``d^2``.
"""

from __future__ import annotations

import time

from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_manager import LockManager, LockMode
from repro.sim.environment import Environment

DEPTHS = (1, 16, 128)
HOT_KEY = 7
#: Rounds are repeated for at least this long per depth.
MIN_SECONDS = 0.3


def _round(locks: LockManager, env: Environment, first_txn: int, depth: int):
    txns = range(first_txn, first_txn + depth)
    events = [locks.acquire(txn, HOT_KEY, LockMode.EXCLUSIVE) for txn in txns]
    for txn, event in zip(txns, events):
        if not event.triggered:
            raise AssertionError(f"txn {txn} not granted in FIFO order")
        locks.release_all(txn)
    env.run()
    if locks.queue_length(HOT_KEY) or locks.holders_of(HOT_KEY):
        raise AssertionError("hot key still locked after the round")


def ops_per_second(depth: int, min_seconds: float = MIN_SECONDS) -> float:
    """Lock operations per host second at queue depth ``depth``."""
    env = Environment()
    locks = LockManager(env, DeadlockDetector())
    next_txn = 1
    ops = 0
    started = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_seconds:
        _round(locks, env, next_txn, depth)
        next_txn += depth
        ops += 2 * depth
        elapsed = time.perf_counter() - started
    return ops / elapsed


def drive(min_seconds: float = MIN_SECONDS) -> dict[str, float]:
    """The ``locking.drive.*`` metrics."""
    rates = {depth: ops_per_second(depth, min_seconds) for depth in DEPTHS}
    metrics = {
        f"locking.drive.depth{depth}_ops_per_s": rate
        for depth, rate in rates.items()
    }
    # Per-operation cost at depth 128 relative to depth 1.
    metrics["locking.drive.depth128_over_depth1"] = rates[1] / rates[128]
    return metrics
