"""Machine-independent budget for cyclic garbage.

CPython frees an object the moment its last reference goes; only what
sits in a reference *cycle* waits for the cyclic collector, whose passes
cost host time in proportion to everything that is alive.  The kernel
keeps an event from ever leading back to itself once it has triggered
(see ``repro.sim.events``), so serving a transaction leaves nothing for
the collector.  With the collector off for a whole cell, ``gc.collect()``
afterwards returns what the cell left behind: a count, the same on every
machine and every run — the garbage twin of
``test_serving_call_budget.py``.  (A granted request that held itself and
a condition held by its own unfired child once left 8.6 objects per
commit on the standard cell and 55 on the elastic one.)

What remains is the abort path: a failed event holds its exception, the
exception its traceback, the traceback the frame that holds the event —
about 35 objects per deadlock victim, a handful per cell.
"""

import gc

import pytest

from repro.elasticity import parse_elasticity_schedule
from repro.experiments import bench_scale, run_experiment, runner
from repro.faults import parse_fault_schedule

#: Unreachable objects left per committed transaction.
GARBAGE_PER_COMMIT = 0.1


def _standard_cell():
    # The cell of test_serving_call_budget.py.
    return bench_scale(
        "Hybrid", "zipf", "high", alpha=1.0, seed=0,
        warmup_intervals=2, measure_intervals=6,
    )


def _elastic_cell():
    # A node joins, another crashes mid-service and comes back: the
    # interruptible work server (a kill event per job) and node_down
    # aborts both run.
    return bench_scale(
        "Hybrid", "zipf", "low", seed=0,
        warmup_intervals=2, measure_intervals=12,
        faults=parse_fault_schedule("100:crash:1,120:restart:1"),
        elasticity=parse_elasticity_schedule("60:add:1"),
    )


@pytest.mark.parametrize("make_config", [_standard_cell, _elastic_cell])
def test_a_cell_leaves_no_cyclic_garbage_per_commit(
    make_config, monkeypatch, collector_off
):
    # The system itself is one big cycle (environment <-> components);
    # keep it alive so that only what serving left behind is counted.
    systems = []
    build_system = runner.build_system

    def build_and_keep(config):
        systems.append(build_system(config))
        return systems[-1]

    monkeypatch.setattr(runner, "build_system", build_and_keep)
    result = run_experiment(make_config())
    unreachable = gc.collect()

    (system,) = systems
    commits = system.tm.total_committed  # warm-up included, as the garbage is
    assert commits > 1_000
    if make_config is _elastic_cell:
        node_down = sum(
            r.aborted_by_cause.get("node_down", 0) for r in result.intervals
        )
        assert node_down > 0 and len(system.cluster.nodes) == 6
    assert unreachable <= GARBAGE_PER_COMMIT * commits, (
        f"the cell left {unreachable / commits:.2f} unreachable objects "
        "per commit for the cyclic collector"
    )
