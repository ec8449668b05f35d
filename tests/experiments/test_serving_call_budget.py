"""Machine-independent budget for *serving* a standard cell.

Every figure grid is made of cells of this shape, and what they cost is
the simulator's own machinery: queue entries, events, generator hops and
reaper walks per committed transaction.  ``cProfile``'s ``total_calls``
is a count, the same on every machine and every run, so this gate says
"no per-event ladder came back" without a wall-clock threshold — the
serving-side twin of ``test_setup_call_budget.py``.
"""

import cProfile
import pstats

from repro.experiments import bench_scale, run_experiment

#: Profiled calls per committed transaction for the whole cell, set-up
#: included (2,043 before the event-lean kernel, 1,496 when set).
CALLS_PER_COMMIT = 1_750


def test_standard_cell_stays_inside_its_call_budget():
    config = bench_scale(
        "Hybrid", "zipf", "high", alpha=1.0, seed=0,
        warmup_intervals=2, measure_intervals=6,
    )
    profiler = cProfile.Profile()
    result = profiler.runcall(run_experiment, config)
    calls = pstats.Stats(profiler).total_calls
    commits = result.summary["total_committed"]
    assert commits > 1_000
    assert calls <= CALLS_PER_COMMIT * commits, (
        f"the standard cell made {calls / commits:.1f} calls per commit"
    )
