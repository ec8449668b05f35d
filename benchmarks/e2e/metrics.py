"""Names, units, directions and bounds of every metric, in one place.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
written out; test_e2e_smoke keeps the two equal.  The ``moves`` texts
say which end-to-end metric a layer metric should move, on which
workload -- written down before any optimisation is measured, so a later
change can be held to them (README.md has the same map as prose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from benchmarks.e2e.layers import LAYERS
from benchmarks.e2e.workloads import CLUSTER_NODES, WORKLOADS

CLUSTER = f"cluster{CLUSTER_NODES}"

#: How long one run measures: after every cell has run once and one has
#: been repeated, repeats go on while the next is expected to end within
#: this budget.
RUN_SECONDS = 25
#: ``--seed n`` generates the cells with seeds ``n * stride + 0, 1, ...``.
CELL_SEED_STRIDE = 1000


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: Simulated (virtual-time) metrics repeat exactly for a seed.
    exact: bool


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, False),
    EndToEnd("host_us_per_commit", "us", "lower", 0.25, False),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, False),
    EndToEnd("sim_throughput_txn_per_min", "txn/min", "higher", 0.15, True),
    EndToEnd("sim_latency_ms_p50", "ms", "lower", 0.25, True),
    EndToEnd("sim_commit_share", "ratio", "higher", 0.25, True),
    EndToEnd("sim_rep_rate_mean", "ratio", "higher", 0.15, True),
)


@dataclass(frozen=True)
class PerLayer:
    """A metric of a single layer (no bound)."""

    name: str
    unit: str
    better: str
    #: Exact counters repeat for a seed; timings do not.
    exact: bool
    moves: str


_HOST = "host_us_per_commit"

#: layer -> which end-to-end metric its self time should move, where.
_LAYER_MOVES: dict[str, str] = {
    "locking": (
        f"{_HOST} on {CLUSTER} (up to its share, the largest there) and "
        "on std_cell/elastic_churn (~20%); uniform_low: no move"
    ),
    "sim": (
        f"{_HOST} on uniform_low and std_cell (with txn and routing ~65%); "
        f"on {CLUSTER} under 10%, no visible move"
    ),
    "txn": (
        f"{_HOST} on uniform_low and std_cell (with sim and routing ~65%); "
        f"on {CLUSTER} under 10%, no visible move"
    ),
    "routing": (
        f"{_HOST} on uniform_low and std_cell (with sim and txn ~65%); "
        f"on {CLUSTER} under 10%, no visible move"
    ),
    "core": (
        f"{_HOST} on {CLUSTER} and uniform_low (session bookkeeping, "
        "ranking 12k-94k ops)"
    ),
    "core.schedulers": f"{_HOST} on uniform_low and std_cell (per-interval)",
    "partitioning": (
        f"{_HOST} on {CLUSTER} and uniform_low through driver.plan_s"
    ),
    "storage": (
        f"setup_s and peak_rss_mb on {CLUSTER}; {_HOST} on elastic_churn "
        "only (WAL write path, replay)"
    ),
    "workload": f"setup_s and peak_rss_mb on {CLUSTER}",
    "cluster": f"{_HOST} on elastic_churn",
    "elasticity": (
        f"{_HOST} on elastic_churn; calls_per_commit must be 0 elsewhere"
    ),
    "faults": (
        f"{_HOST} on elastic_churn; calls_per_commit must be 0 elsewhere"
    ),
    "metrics": (
        f"{_HOST} everywhere, largest relative effect on uniform_low"
    ),
    "control": f"{_HOST} on std_cell and uniform_low (PID step/interval)",
    "experiments": (
        "setup_s (build_system wiring); the engine's pool and cache stay "
        "with BENCH_engine.json"
    ),
    "other": "none: benchmark driver frames and unattributed stdlib time",
}


def _layer_metrics() -> list[PerLayer]:
    out = []
    for layer in LAYERS:
        moves = _LAYER_MOVES[layer]
        out.append(PerLayer(
            f"{layer}.self_us_per_commit", "us/commit", "lower", False, moves
        ))
        out.append(PerLayer(
            f"{layer}.self_share", "ratio", "lower", False, moves
        ))
        out.append(PerLayer(
            f"{layer}.calls_per_commit", "calls/commit", "lower", True, moves
        ))
    return out


_FAIL = "sim_commit_share, only when a change alters the model"
_P99 = (
    "txn.latency_ms_p99 and txn.latency_ms_mean, only when a change "
    "alters the model"
)
_REP = "sim_rep_rate_mean, only when a change alters the model"

PER_LAYER: tuple[PerLayer, ...] = (
    *_layer_metrics(),
    PerLayer("driver.import_s", "s", "lower", False, "setup_s everywhere"),
    PerLayer(
        "driver.build_s", "s", "lower", False,
        f"setup_s and peak_rss_mb on {CLUSTER}",
    ),
    PerLayer(
        "driver.plan_s", "s", "lower", False,
        f"{_HOST} on {CLUSTER} and uniform_low (derive + rank + deploy)",
    ),
    PerLayer("driver.run_s", "s", "lower", False, f"{_HOST} (its numerator)"),
    PerLayer(
        "driver.audit_s", "s", "lower", False, "none: untimed audit cost"
    ),
    PerLayer(
        "driver.host_slowdown", "ratio", "lower", False,
        "none: mean reference tick during the run over its nominal time; "
        f"{_HOST} is driver.run_s divided by it (reference.py)",
    ),
    PerLayer(
        "driver.trace_overhead_ratio", "ratio", "lower", False,
        "none: traced run_s over untraced run_s, each at the reference "
        "host speed: the cost of tracing",
    ),
    PerLayer(
        "txn.attempts_per_commit", "ratio", "lower", True,
        f"{_HOST} (wasted attempts) and {_FAIL}",
    ),
    PerLayer("txn.failure_share", "ratio", "lower", True, _FAIL),
    PerLayer(
        "txn.latency_ms_mean", "ms", "lower", True,
        "none: the paper's latency statistic, reported beside "
        "sim_latency_ms_p50 but too seed-dependent on std_cell to gate",
    ),
    PerLayer(
        "txn.latency_ms_p99", "ms", "lower", True,
        "none: the tail, reported but bimodal across seeds on "
        f"{CLUSTER} (about 900 samples) and so not gated",
    ),
    PerLayer("txn.retries", "count", "lower", True, _FAIL),
    PerLayer("txn.aborts.queue_timeout", "count", "lower", True, _FAIL),
    PerLayer("txn.queue_length_end_max", "count", "lower", True, _P99),
    PerLayer(
        "locking.grants", "count", "lower", True,
        "locking.calls_per_commit (work per run, not a goal in itself)",
    ),
    PerLayer("locking.waits", "count", "lower", True, _P99),
    PerLayer("locking.wait_share", "ratio", "lower", True, _P99),
    PerLayer("locking.aborts.deadlock", "count", "lower", True, _FAIL),
    PerLayer("locking.aborts.lock_timeout", "count", "lower", True, _FAIL),
    PerLayer("cluster.aborts.node_down", "count", "lower", True, _FAIL),
    PerLayer(
        "routing.epoch_publishes", "count", "lower", True,
        f"routing self time, hence {_HOST} on elastic_churn (bulk publishes)",
    ),
    PerLayer("routing.forwarded_reads", "count", "lower", True, _P99),
    PerLayer("routing.stale_route_retries", "count", "lower", True, _FAIL),
    PerLayer("core.rep_ops_total", "count", "lower", True, _REP),
    PerLayer("core.rep_ops_applied", "count", "higher", True, _REP),
    PerLayer("core.rep_txn_committed", "count", "higher", True, _REP),
    PerLayer("core.rep_txn_aborted", "count", "lower", True, _REP),
    PerLayer("core.rep_txn_withdrawn", "count", "higher", True, _REP),
    PerLayer("core.piggyback_cost_share", "ratio", "higher", True, _REP),
    PerLayer(
        "storage.tuples_resident", "count", "lower", True,
        f"peak_rss_mb on {CLUSTER}",
    ),
    PerLayer(
        "storage.wal_records", "count", "lower", True,
        f"{_HOST} and peak_rss_mb on elastic_churn",
    ),
    PerLayer(
        "elasticity.peak_backlog", "count", "lower", True,
        "sim_rep_rate_mean on elastic_churn; 0 elsewhere",
    ),
    PerLayer(
        "faults.degraded_s", "s", "lower", True,
        "sim_throughput_txn_per_min on elastic_churn; 0 elsewhere",
    ),
    *(
        PerLayer(
            f"locking.drive.depth{depth}_ops_per_s", "1/s", "higher", False,
            f"locking.self_us_per_commit on {CLUSTER}",
        )
        for depth in (1, 16, 128)
    ),
    PerLayer(
        "locking.drive.depth128_over_depth1", "ratio", "lower", False,
        f"locking.self_us_per_commit on {CLUSTER} (flat ~1 for a linear "
        "wait graph)",
    ),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {
                "name": m.name, "unit": m.unit,
                "better": m.better, "bound": m.bound,
            }
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
