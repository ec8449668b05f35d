"""Self-test of the end-to-end benchmark (outside tier-1; run explicitly).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Every workload runs once at a shortened horizon (``--smoke``), so this
checks the plumbing -- every metric emitted with its unit, the audit,
the layer map, the ``run_experiment`` mirror -- not the numbers.
"""

from __future__ import annotations

import gc
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import child, compare, reference
from benchmarks.e2e.layers import LAYERS, layer_of
from benchmarks.e2e.metrics import (
    END_TO_END,
    PER_LAYER,
    benchmark_json,
)
from benchmarks.e2e.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ["benchmarks/e2e/run.py"]


def _run(args: list[str], cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, *RUN, *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _tail(done) -> str:
    """The human-readable end of a failed run (not the JSON line)."""
    lines = [line for line in done.stdout.splitlines() if line[:1] != "{"]
    return "\n".join(lines[-12:]) + done.stderr[-2000:]


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory) -> dict[str, dict]:
    """One traced smoke run of every workload (both metric sections)."""
    out = tmp_path_factory.mktemp("results")
    done = _run(["--smoke", "--trace", "1", "--out", str(out)])
    assert done.returncode == 0, _tail(done)
    records = {
        name: json.loads((out / f"{name}-seed0-trace1-smoke.json").read_text())
        for name in WORKLOADS
    }
    # The set agrees with itself under ``compare``.
    assert compare.main([str(out), str(out)]) == 0
    return records


def test_benchmark_json_is_the_metric_table():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in spec[section]
    ]
    assert len(names) == len(set(names))
    assert all(name_re.match(name) for name in names)
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert unit_re.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_package_maps_to_exactly_one_layer():
    package_root = ROOT / "src" / "repro"
    for entry in sorted(package_root.iterdir()):
        if entry.name == "__pycache__":
            continue
        probe = entry / "__init__.py" if entry.is_dir() else entry
        # An unknown package raises KeyError here rather than being
        # counted as ``other``.
        assert layer_of(str(probe)) in LAYERS, entry
    schedulers = package_root / "core" / "schedulers" / "hybrid.py"
    assert layer_of(str(schedulers)) == "core.schedulers"
    assert layer_of("/usr/lib/python3/heapq.py") is None


def test_every_metric_is_emitted_with_its_unit(smoke_records):
    for name, record in smoke_records.items():
        assert all(check["ok"] for check in record["checks"]), name
        for metric in END_TO_END:
            assert record["end_to_end"][metric.name]["unit"] == metric.unit
        for metric in PER_LAYER:
            cell = record["per_layer"][metric.name]
            assert cell["unit"] == metric.unit
            assert isinstance(cell["value"], (int, float))
        assert set(record["per_layer"]) == {m.name for m in PER_LAYER}


def test_layer_shares_sum_to_one(smoke_records):
    for name, record in smoke_records.items():
        shares = sum(
            record["per_layer"][f"{layer}.self_share"]["value"]
            for layer in LAYERS
        )
        assert shares == pytest.approx(1.0), name


def test_elasticity_and_faults_run_only_under_churn(smoke_records):
    for name, record in smoke_records.items():
        for layer in ("elasticity", "faults"):
            calls = record["per_layer"][f"{layer}.calls_per_commit"]["value"]
            assert (calls > 0) == (name == "elastic_churn"), (name, layer)


def test_untraced_run_prints_the_result_line(tmp_path):
    done = _run(
        ["--workload", "std_cell", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke", "--out", str(tmp_path)]
    )
    assert done.returncode == 0, _tail(done)
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        assert line["metrics"][metric.name]["unit"] == metric.unit
        assert line["metrics"][metric.name]["value"] > 0


def test_reference_tick_leaves_the_collector_alone():
    # A tick that allocated tracked objects would move the cell's
    # garbage collections into (or out of) the timed steps around it.
    reference.tick()
    before = gc.get_count()
    assert reference.tick() > 0
    assert gc.get_count() == before


def test_mirror_equals_run_experiment():
    config = WORKLOADS["std_cell"].build(0, True)
    assert child.mirror_matches_run_experiment(config) is None


def test_fails_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = _run(["--workload", "std_cell", "--smoke"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
