"""The benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py compare A B

(equivalently ``PYTHONPATH=src python -m benchmarks.e2e.run ...``).

One run of a workload is a series of *executions* of its cells, each
in a fresh child process (``PYTHONHASHSEED=0``, ``gc`` at its defaults),
one after the other: every cell once, then repeats while the next one is
expected to end within ``--seconds``.  Host timings are the median over
the executions; simulated values must be identical across the
executions of a cell.  ``--trace 1`` runs one untraced execution and one under
``cProfile`` and reports the per-layer ledger instead.

Prints every metric by name with its unit, runs the correctness audit,
writes the full record under ``benchmarks/e2e/results/`` and ends with
one JSON line; exits non-zero when any audit check fails.
"""

from __future__ import annotations

import pathlib
import sys

# Run as a script, ``sys.path`` starts at this directory: add the
# repository root (for ``benchmarks.e2e``) and ``src`` (for ``repro``).
# Where there is no ``src/repro`` the imports below fail and the program
# exits non-zero without a result, as it must.
ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
for _entry in (str(SRC), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Optional  # noqa: E402

from repro.experiments.config import config_to_dict  # noqa: E402

from benchmarks.e2e import audit, compare, drive_locking  # noqa: E402
from benchmarks.e2e.layers import LAYERS  # noqa: E402
from benchmarks.e2e.metrics import (  # noqa: E402
    CELL_SEED_STRIDE,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
)
from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
#: One execution may not outlast this (the whole run has 180 s).
CHILD_TIMEOUT_S = 150


def run_child(job: dict[str, Any]) -> dict[str, Any]:
    """One execution in a fresh process; its JSON record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"execution failed with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def cell_seeds(seed: int, cells: int) -> list[int]:
    """The seeds of the cells one run generates from ``--seed``."""
    return [seed * CELL_SEED_STRIDE + cell for cell in range(cells)]


def spread(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and the values themselves."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool
) -> dict[str, Any]:
    """All executions of one workload; the run's full record."""
    seeds = cell_seeds(seed, 1 if traced else workload.cells)
    jobs = [
        {
            "config": config_to_dict(workload.build(cell_seed, smoke)),
            "quiesce": workload.quiesce,
            "traced": False,
        }
        for cell_seed in seeds
    ]
    started = time.perf_counter()
    executions: list[dict[str, Any]] = []

    def execute(cell: int) -> None:
        executions.append({**run_child(jobs[cell]), "cell": cell})

    for cell in range(len(jobs)):
        execute(cell)
    traced_execution: Optional[dict[str, Any]] = None
    if traced:
        traced_execution = run_child({**jobs[0], "traced": True})
    else:
        # Repeats time the same cells again and prove them deterministic:
        # the first whenever the cells left any of the budget (a smoke
        # run has none and takes it all the same), more while the next
        # is expected to end within it.  On a slow host the cells alone
        # can outlast ``seconds``; the run then ends with them.
        repeats = 0
        while True:
            elapsed = time.perf_counter() - started
            if repeats:
                fits = elapsed * (1 + 1 / len(executions)) <= seconds
            else:
                fits = smoke or elapsed < seconds
            if not fits:
                break
            execute(repeats % len(jobs))
            repeats += 1

    checks = [
        {**check, "execution": i}
        for i, execution in enumerate(executions)
        for check in execution["checks"]
    ]
    if traced_execution is not None:
        checks.extend(
            {**check, "execution": "traced"}
            for check in traced_execution["checks"]
        )
    for cell, cell_seed in enumerate(seeds):
        digests = [e["digest"] for e in executions if e["cell"] == cell]
        traced_digest = (
            traced_execution["digest"]
            if traced_execution is not None and cell == 0 else None
        )
        checks.extend(
            {**check.to_dict(), "cell_seed": cell_seed}
            for check in audit.digest_checks(digests, traced_digest)
        )

    firsts = [
        next(e for e in executions if e["cell"] == cell)
        for cell in range(len(jobs))
    ]
    end_to_end = {
        metric.name: {
            **spread([
                e[metric.name] for e in (firsts if metric.exact else executions)
            ]),
            "unit": metric.unit,
        }
        for metric in END_TO_END
    }
    # What the clock read, beside what is gated (see reference.py).
    raw = {
        "raw_host_us_per_commit": {
            **spread([e["raw_host_us_per_commit"] for e in executions]),
            "unit": "us",
        },
        "host_slowdown": {
            **spread([
                e["driver"]["driver.host_slowdown"] for e in executions
            ]),
            "unit": "ratio",
        },
    }
    record: dict[str, Any] = {
        "schema": 1,
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "cells": [
            {
                "seed": cell_seed,
                "digest": first["digest"],
                "commits": first["commits"],
                "latency_samples": first["sim_latency_samples"],
                "config": job["config"],
            }
            for cell_seed, first, job in zip(seeds, firsts, jobs)
        ],
        "end_to_end": end_to_end,
        "raw": raw,
        "checks": checks,
        "executions": executions,
    }
    if traced_execution is not None:
        record["per_layer"] = per_layer_metrics(
            executions, traced_execution, smoke
        )
        record["traced_execution"] = traced_execution
    return record


def per_layer_metrics(
    executions: list[dict[str, Any]], traced: dict[str, Any], smoke: bool
) -> dict[str, Any]:
    """The per-layer ledger, driver spans, counters and locking drive."""
    values: dict[str, float] = {}
    commits = traced["commits"]
    total_s = sum(row["self_s"] for row in traced["layers"].values())
    for layer in LAYERS:
        row = traced["layers"][layer]
        values[f"{layer}.self_us_per_commit"] = row["self_s"] / commits * 1e6
        values[f"{layer}.self_share"] = row["self_s"] / total_s
        values[f"{layer}.calls_per_commit"] = row["calls"] / commits
    for name in executions[0]["driver"]:
        values[name] = statistics.median(
            execution["driver"][name] for execution in executions
        )
    # Both sides at the reference host speed: the two executions need
    # not have met the same host.
    values["driver.trace_overhead_ratio"] = (
        traced["driver"]["driver.run_s"]
        / traced["driver"]["driver.host_slowdown"]
    ) / statistics.median(
        execution["driver"]["driver.run_s"]
        / execution["driver"]["driver.host_slowdown"]
        for execution in executions
    )
    values.update(executions[0]["counters"])
    values.update(drive_locking.drive(0.05 if smoke else 0.3))
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in PER_LAYER
    }


def report(record: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the audit."""
    title = f"{record['workload']} seed={record['seed']}"
    if record["smoke"]:
        title += " (smoke)"
    print(f"== {title}")
    for cell in record["cells"]:
        print(f"  cell seed {cell['seed']}: {cell['commits']} commits, "
              f"{cell['latency_samples']} latency samples, "
              f"digest {cell['digest'][:12]}")
    for name, cell in (record["end_to_end"] | record["raw"]).items():
        print(f"  {name:<34} {cell['value']:>14.4f} {cell['unit']:<8}"
              f" q1 {cell['q1']:.4f} q3 {cell['q3']:.4f} n {cell['n']}")
    for name, cell in record.get("per_layer", {}).items():
        print(f"  {name:<34} {cell['value']:>14.4f} {cell['unit']}")
    failed = [check for check in record["checks"] if not check["ok"]]
    print(f"  audit: {len(record['checks'])} checks, {len(failed)} failed")
    for check in failed:
        print(f"  FAILED {check['name']} (execution "
              f"{check.get('execution', 'all')}): {check['detail']}")


def result_line(records: list[dict[str, Any]], traced: bool) -> str:
    """The contract's last line of standard output."""
    section = "per_layer" if traced else "end_to_end"
    per_workload = {
        record["workload"]: {
            name: {"value": cell["value"], "unit": cell["unit"]}
            for name, cell in record[section].items()
        }
        for record in records
    }
    checks = [check for record in records for check in record["checks"]]
    failed = sum(1 for check in checks if not check["ok"])
    metrics = (
        per_workload[records[0]["workload"]]
        if len(records) == 1 else per_workload
    )
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_DIR)
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced
    # A smoke run checks the plumbing, not the numbers: no extra runs.
    seconds = 0.0 if args.smoke else args.seconds

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        record = run_workload(
            WORKLOADS[name], args.seed, seconds, traced, args.smoke
        )
        report(record)
        stem = f"{name}-seed{args.seed}-trace{int(traced)}"
        if args.smoke:
            stem += "-smoke"
        (args.out / f"{stem}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        records.append(record)
    line = result_line(records, traced)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
