"""Machine-independent budgets for set-up and planning.

Build and plan are what every cell — and every re-plan — pays before a
transaction runs, and on the scale tier they were once a ladder of
Python calls walked per tuple (32 calls a tuple to build, 87 per
profiled key to plan).  ``cProfile``'s ``total_calls`` is a count, the
same on every machine and every run, so these gates say "no per-tuple
ladder came back" without a wall-clock threshold — in the spirit of
``BENCH_locking.json``'s ``depth128_over_depth1``.

The same goes for the cyclic collector: a plan is a quarter of a million
live objects at the paper's size and every pass over it while it is being
built is futile, so the number of collections between entry to and return
from ``start_repartitioning`` is gated too — at zero.

And for the plan's memory: its traced peak per planned op is a ratio of
two counts of the same run, so it is gated as well, together with the
two structures whose return would break it.
"""

import cProfile
import gc
import pstats
import tracemalloc

import pytest

from repro.core import RepartitionTransactionSpec
from repro.experiments import build_system, medium_scale, start_repartitioning

#: Profiled calls per tuple to build the system (8.3 when set; 16.4 with
#: one ``randrange`` ladder and one ``assign`` per tuple).
BUILD_CALLS_PER_TUPLE = 12
#: Profiled calls per profiled key to derive, rank and submit the plan
#: (26.8 when set).
PLAN_CALLS_PER_KEY = 45
#: Traced peak bytes per planned op of ``start_repartitioning`` (365
#: when set; 678 with the profile's key -> types index and a list per
#: planned key).
PLAN_PEAK_BYTES_PER_OP = 450


def _calls(fn, *args):
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    return result, pstats.Stats(profiler).total_calls


def test_build_and_plan_stay_inside_their_call_budgets():
    config = medium_scale("Hybrid", "zipf", "low", alpha=1.0, seed=0)
    system, build_calls = _calls(build_system, config)
    session, plan_calls = _calls(start_repartitioning, system)

    tuples = config.workload.tuple_count
    profiled_keys = len({k for t in system.profile.types for k in t.keys})
    assert (tuples, profiled_keys) == (25_000, 16_000)
    assert sum(len(n.store) for n in system.cluster.nodes) == tuples
    assert session.ops_total > 0

    assert build_calls <= BUILD_CALLS_PER_TUPLE * tuples, (
        f"build_system made {build_calls / tuples:.1f} calls per tuple"
    )
    assert plan_calls <= PLAN_CALLS_PER_KEY * profiled_keys, (
        f"start_repartitioning made {plan_calls / profiled_keys:.1f} "
        "calls per profiled key"
    )


def _collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("case", ["enabled", "disabled", "transform raises"])
def test_no_collection_runs_while_the_plan_is_built(case, collector_restored):
    config = medium_scale("Hybrid", "zipf", "low", alpha=1.0, seed=0)
    system = build_system(config)
    collections = [0, 0, 0]
    inside = [False]

    def count(phase, info):
        if inside[0] and phase == "start":
            collections[info["generation"]] += 1

    def broken_transform(specs):
        # Derive, diff and rank are behind us; the unwinding allocates
        # tracebacks in the callers' frames, which is not the plan.
        inside[0] = False
        raise RuntimeError(f"cannot transform {len(specs)} specs")

    gc.callbacks.append(count)
    try:
        (gc.disable if case == "disabled" else gc.enable)()
        gc.collect()  # the allocation counts start from zero
        before = _collector_state()
        # Nothing is allocated between the flag and the call, or between
        # the return and the flag: a collection counted is one inside.
        if case == "transform raises":
            with pytest.raises(RuntimeError, match="cannot transform"):
                inside[0] = True
                start_repartitioning(system, broken_transform)
        else:
            inside[0] = True
            session = start_repartitioning(system)
            inside[0] = False
            assert session.ops_total > 0
        after = _collector_state()
    finally:
        gc.callbacks.remove(count)

    assert collections == [0, 0, 0]  # 94 + 8 + 0 before the pause
    assert after == before


def test_plan_allocates_only_what_it_keeps():
    config = medium_scale("Hybrid", "zipf", "low", alpha=1.0, seed=0)
    system = build_system(config)
    tracemalloc.start()
    try:
        session = start_repartitioning(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    ops = session.ops_total
    assert ops == 12_800
    assert peak <= PLAN_PEAK_BYTES_PER_OP * ops, (
        f"start_repartitioning peaked at {peak / ops:.0f} traced bytes "
        "per planned op"
    )
    # Neither derive nor rank builds the profile-wide key index ...
    assert system.profile._key_index is None
    # ... and a spec, one per planned transaction, carries no dict.
    spec = RepartitionTransactionSpec(ops=[], type_id=0, benefit=1.0, cost=1.0)
    assert not hasattr(spec, "__dict__")
