"""What importing the experiment surface may not drag in.

Every worker process and every benchmark execution pays for
``import repro.experiments`` before its first event; the numeric and
graph libraries are needed by one optional planner and by nothing a
standard cell runs, so they must load on first use, not on import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("networkx", "numpy", "scipy")

_SNIPPET = """
import sys
import repro.experiments, repro.metrics.report
print(",".join(m for m in {heavy!r} if m in sys.modules))
"""


def test_experiment_imports_leave_heavy_libraries_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", _SNIPPET.format(heavy=HEAVY)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", (
        f"import repro.experiments loaded {result.stdout.strip()}"
    )


def _run(snippet, *flags):
    result = subprocess.run(
        [sys.executable, *flags, "-c", snippet],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


#: What ``benchmarks/e2e/child.py`` and a ``run_cells`` worker import
#: before their first cell.
_CELL_IMPORTS = """
import sys
import repro.experiments.config
from repro.experiments import build_system, start_repartitioning
import repro.metrics.report
"""
#: The figure grids, sweeps, result cache and worker pool — and the
#: stdlib only they need — are no part of a cell.
NOT_FOR_A_CELL = (
    "repro.experiments.figures", "repro.experiments.sweeps",
    "repro.experiments.cache", "repro.experiments.parallel", "repro.cli",
    "multiprocessing", "concurrent.futures", "logging", "socket",
)
#: Modules in ``sys.modules`` after the cell imports in a ``python -S``
#: child: the interpreter's own start-up modules plus the cell's closure.
#: Site-packages ``.pth`` hooks are left out — they vary from machine to
#: machine and no project code loads what they import (CPython 3.11.7:
#: 166 now; 222 with the eager facades of e2e0d8e).
CELL_MODULE_BUDGET = 185


def test_cell_imports_load_what_a_cell_runs_and_no_more():
    out = _run(_CELL_IMPORTS + f"""
print(len(sys.modules), ",".join(m for m in {NOT_FOR_A_CELL!r} if m in sys.modules))
""", "-S")
    count, _, loaded = out.partition(" ")
    assert loaded == "", f"a cell's imports loaded {loaded}"
    assert int(count) <= CELL_MODULE_BUDGET


_RUN_A_CELL = _CELL_IMPORTS + """
import dataclasses
from repro.cluster import ClusterConfig
from repro.elasticity import parse_elasticity_schedule
from repro.experiments.config import bench_scale
from repro.faults import parse_fault_schedule
from repro.workload import WorkloadConfig

def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "repro"}

config = bench_scale(
    scheduler="Hybrid", warmup_intervals=2, measure_intervals=14, seed=7,
    **ELASTIC
)
config = dataclasses.replace(
    config,
    cluster=ClusterConfig(node_count=3, capacity_units_per_s=4.0),
    workload=WorkloadConfig(
        tuple_count=200, distinct_types=40,
        distribution=config.workload.distribution,
    ),
)
system = build_system(config)
before = loaded()
env, runtime = system.env, config.runtime
warmup_s = runtime.interval_s * runtime.warmup_intervals

def kickoff():
    yield env.timeout(warmup_s)
    start_repartitioning(system)

env.process(kickoff())
env.run(until=warmup_s + runtime.interval_s * runtime.measure_intervals)
repro.metrics.report.summarise(system.metrics.intervals)
assert system.metrics.rep_ops_applied > 0
print(",".join(sorted(loaded() - before)))
"""
_ELASTIC = """dict(
    elasticity=parse_elasticity_schedule("20:add:1,60:drain:0"),
    faults=parse_fault_schedule("70:crash:0,110:restart:0"),
)"""


@pytest.mark.parametrize("elastic", ["{}", _ELASTIC], ids=["static", "elastic"])
def test_no_module_is_first_imported_after_build_system_returns(elastic):
    """An import that moved from set-up into the run would be paid per
    commit and seen by no set-up timer."""
    late = _run(_RUN_A_CELL.replace("ELASTIC", elastic))
    assert late == "", f"first imported during the run: {late}"


_FACADE_CONTRACT = """
import importlib
from unittest import mock

for package in ("repro", "repro.experiments"):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__), package
    missing = set(module.__all__) - set(dir(module))
    assert not missing, f"dir({package}) lacks {sorted(missing)}"
    for name in module.__all__:
        assert getattr(module, name) is vars(module)[name], name  # cached
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace), package
    try:
        module.no_such_name
    except AttributeError as error:
        assert package in str(error) and "no_such_name" in str(error)
    else:
        raise AssertionError(f"{package}.no_such_name resolved")

import repro, repro.experiments
from repro.experiments import build_system as exported
assert exported is repro.experiments.runner.build_system
assert repro.ConfigError is repro.errors.ConfigError
assert repro.experiments.setpoint_for is repro.experiments.tables.setpoint_for
import repro.experiments.figures
assert repro.experiments.figure_elastic is repro.experiments.figures.figure_elastic
with mock.patch("repro.experiments.runner.build_system") as patched:
    assert repro.experiments.runner.build_system is patched
"""


def test_every_exported_name_resolves_through_the_facades():
    _run(_FACADE_CONTRACT)
