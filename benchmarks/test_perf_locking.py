"""Perf harness for ``repro.locking``: cost of a lock operation by queue depth.

Runs the end-to-end benchmark's hot-key drive (``benchmarks/e2e/
drive_locking.py``, imported, never edited here): ``d`` transactions
queue for X on one key and release in FIFO order, at ``d`` = 1, 16, 128.
Writes lock operations per second at each depth and
``depth128_over_depth1`` — the per-operation cost at depth 128 relative
to depth 1 — to ``BENCH_locking.json`` at the repo root.

The ratio is the gate (``bench_guard.py`` kind ``locking``): it divides
two rates measured in the same process seconds apart, so it does not
depend on the machine.  With the whole queue's wait edges recomputed on
every enqueue, grant and cancel it read 180–390; with edges added once at
enqueue it is bounded by the enqueue scan and the deadlock search, both
linear in the queue.  The ``before`` section is the parent commit's
reading on the box that recorded it and is carried over from the
committed file, not re-measured.

    PYTHONPATH=src python -m pytest -x -q benchmarks/test_perf_locking.py
"""

import json
import os
import pathlib
import platform
import time

from benchmarks.bench_guard import validate_schema
from benchmarks.e2e.drive_locking import DEPTHS, drive

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_locking.json"


def test_perf_locking():
    before = None
    if BENCH_PATH.exists():
        before = json.loads(BENCH_PATH.read_text()).get("before")
    # Best of three drives per depth: the host's slow phases only ever
    # lower a rate.  The ratio is taken between the two best rates.
    runs = [drive() for _ in range(3)]
    rates = {
        f"depth{depth}_ops_per_s": round(
            max(run[f"locking.drive.depth{depth}_ops_per_s"] for run in runs)
        )
        for depth in DEPTHS
    }
    payload = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "depths": list(DEPTHS),
        **rates,
        "depth128_over_depth1": round(
            rates["depth1_ops_per_s"] / rates["depth128_ops_per_s"], 2
        ),
        "before": before,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    # The ``locking`` schema carries the gate on the ratio.
    assert validate_schema(payload, "locking") == []
