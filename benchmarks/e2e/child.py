"""One execution of one workload, in a fresh process.

Run as ``python -m benchmarks.e2e.child`` with a JSON job on stdin
(``{"config": <config_to_dict>, "quiesce": bool, "traced": bool}``);
prints one JSON result on stdout.  The parent builds the config from the
workload name and the seed; only the built config reaches this process.

The execution mirrors ``repro.experiments.run_experiment`` step for step
(import -> ``build_system`` -> kick-off process calling
``start_repartitioning`` after warm-up -> ``env.run`` to the horizon ->
``summarise``) so that set-up and run can be timed separately;
:func:`mirror_matches_run_experiment` keeps the two from drifting.

The run to the horizon is made in ``SEGMENTS`` equal steps of virtual
time with a reference tick (``reference.py``) between them: the ticks
say how slow the shared host was while the cell ran, and the gated
``host_us_per_commit`` is the steps' wall clock divided by that.
"""

from __future__ import annotations

# ``repro`` and the modules here that import it are imported inside the
# functions below, after ``_PROCESS_START``: importing the system is part
# of the set-up this process times.
import cProfile
import dataclasses
import hashlib
import json
import pstats
import resource
import sys
import time
from typing import Any, Generator, Optional

from benchmarks.e2e import reference

#: Steps of virtual time the run to the horizon is made in; one tick
#: between each two (about 5 % of the run).
SEGMENTS = 80
#: Set-up is timed from here: the harness's own (stdlib) imports are
#: done, the system's imports (``repro``, inside the functions below)
#: are all still to come.
_PROCESS_START = time.perf_counter()


def series_digest(intervals: list[Any]) -> str:
    """SHA-256 over every field of every per-interval record."""
    payload = json.dumps(
        [dataclasses.asdict(record) for record in intervals],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def simulated_metrics(measured: list[Any]) -> dict[str, float]:
    """The simulated outcome of the cell over its measured intervals."""
    from repro.metrics.collectors import IntervalRecord

    latencies = [s for r in measured for s in r.latencies]
    # One record holding every sample: the repo's own percentile rule.
    pooled = IntervalRecord(index=0, start=0.0, end=0.0, latencies=latencies)
    submitted = sum(r.submitted for r in measured)
    aborted = sum(r.aborted for r in measured)
    count = len(measured)
    return {
        "sim_throughput_txn_per_min": (
            sum(r.throughput_txn_per_min for r in measured) / count
        ),
        "sim_latency_ms_p50": pooled.latency_percentile(50.0) * 1000.0,
        "sim_latency_ms_mean": sum(latencies) / len(latencies) * 1000.0,
        "sim_latency_ms_p99": pooled.latency_percentile(99.0) * 1000.0,
        "sim_latency_samples": len(latencies),
        "sim_commit_share": 1.0 - aborted / submitted,
        "sim_rep_rate_mean": sum(r.rep_rate for r in measured) / count,
    }


def model_counters(system: Any) -> dict[str, float]:
    """Exact model counters read from public state at the horizon."""
    from benchmarks.e2e.audit import rep_txns_running

    metrics = system.metrics
    records = list(metrics.intervals) + [metrics.current_interval]
    tm = system.tm
    nodes = system.cluster.nodes

    def total(field: str) -> float:
        return sum(getattr(r, field) for r in records)

    def cause(name: str) -> int:
        return sum(r.aborted_by_cause.get(name, 0) for r in records)

    grants = sum(node.locks.grants for node in nodes)
    waits = sum(node.locks.waits for node in nodes)
    rep_submitted = total("submitted") - total("normal_submitted")
    rep_queued = sum(
        1 for txn in tm.queue.waiting() if txn.is_repartition
    )
    rep_cost = (
        total("rep_cost_high") + total("rep_cost_low")
        + total("rep_cost_piggyback")
    )
    elastic = system.config.elasticity is not None
    return {
        "txn.attempts_per_commit": tm.total_submitted / tm.total_committed,
        "txn.failure_share": total("aborted") / total("submitted"),
        "txn.retries": tm.total_retries,
        "txn.aborts.queue_timeout": cause("queue_timeout"),
        "txn.queue_length_end_max": max(
            r.queue_length_end for r in metrics.intervals
        ),
        # Lock managers alive at the horizon: a crash replaces the
        # node's manager, so the crashed one's tally is gone with it.
        "locking.grants": grants,
        "locking.waits": waits,
        "locking.wait_share": waits / grants,
        "locking.aborts.deadlock": cause("deadlock"),
        "locking.aborts.lock_timeout": cause("lock_timeout"),
        "cluster.aborts.node_down": cause("node_down"),
        "routing.epoch_publishes": total("epoch_publishes"),
        "routing.forwarded_reads": total("forwarded_reads"),
        "routing.stale_route_retries": total("stale_route_retries"),
        "core.rep_ops_total": metrics.rep_ops_total,
        "core.rep_ops_applied": metrics.rep_ops_applied,
        "core.rep_txn_committed": total("rep_committed"),
        "core.rep_txn_aborted": total("rep_aborted"),
        # Submitted to the queue, then claimed by a piggybacking carrier.
        "core.rep_txn_withdrawn": (
            rep_submitted - total("rep_committed") - total("rep_aborted")
            - rep_queued - rep_txns_running(system)
        ),
        "core.piggyback_cost_share": (
            total("rep_cost_piggyback") / rep_cost if rep_cost else 0.0
        ),
        "storage.tuples_resident": sum(len(node.store) for node in nodes),
        "storage.wal_records": sum(
            len(node.wal) for node in nodes if node.wal is not None
        ),
        "elasticity.peak_backlog": (
            max(r.migration_backlog for r in metrics.intervals)
            if elastic else 0
        ),
        "faults.degraded_s": total("degraded_s"),
    }


def execute(
    config: Any, quiesce: bool, traced: bool = False
) -> dict[str, Any]:
    """Build, run, summarise and audit one cell; return its record."""
    from repro.experiments import build_system, start_repartitioning
    from repro.metrics.report import summarise

    from benchmarks.e2e import audit
    imported = time.perf_counter()

    # The profile of a traced execution covers the build and the run,
    # not the ticks between them.
    profiler = cProfile.Profile() if traced else None
    if profiler is not None:
        profiler.enable()
    system = build_system(config)
    if profiler is not None:
        profiler.disable()
    built = time.perf_counter()

    env = system.env
    runtime = config.runtime
    warmup_s = runtime.interval_s * runtime.warmup_intervals
    plan: list[float] = []

    def kickoff() -> Generator[Any, Any, None]:
        if warmup_s > 0:
            yield env.timeout(warmup_s)
        plan.append(time.perf_counter())
        start_repartitioning(system)
        plan.append(time.perf_counter())

    env.process(kickoff())
    horizon = warmup_s + runtime.interval_s * runtime.measure_intervals
    reference.tick()
    ticks = [reference.tick()]
    run_s = 0.0
    run_started = time.perf_counter()
    for segment in range(1, SEGMENTS + 1):
        until = horizon * segment / SEGMENTS if segment < SEGMENTS else (
            horizon + 1e-9
        )
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        env.run(until=until)
        if profiler is not None:
            profiler.disable()
        run_s += time.perf_counter() - started
        ticks.append(reference.tick())
    ran = time.perf_counter()
    slowdown = reference.slowdown(ticks)

    intervals = list(system.metrics.intervals)
    measured = intervals[runtime.warmup_intervals:]
    summary = summarise(measured)
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    commits = sum(r.committed for r in intervals)
    result: dict[str, Any] = {
        # Everything a user waits for before the first event: the
        # system's imports and the dataset build.
        "setup_s": built - _PROCESS_START,
        # Run time at the reference host speed (see reference.py).
        "host_us_per_commit": run_s / slowdown / commits * 1e6,
        "raw_host_us_per_commit": run_s / commits * 1e6,
        "peak_rss_mb": peak_rss_mb,
        **simulated_metrics(measured),
        "commits": commits,
        "digest": series_digest(intervals),
        "summary": summary,
    }
    result["counters"] = {
        **model_counters(system),
        "txn.latency_ms_mean": result.pop("sim_latency_ms_mean"),
        "txn.latency_ms_p99": result.pop("sim_latency_ms_p99"),
    }

    audit_started = time.perf_counter()
    checks = audit.horizon_checks(system)
    if quiesce:
        reached = audit.quiesce(system)
        checks.append(reached)
        if reached.ok:
            checks.extend(audit.final_checks(system))
    else:
        checks.extend(audit.placement_in_flight_checks(system))
    result["checks"] = [check.to_dict() for check in checks]
    # Driver-side spans around the calls into the system; each one's
    # parent is the execution (tracing inside src/ is a later issue).
    # All raw wall clock; the run span holds the ticks between its
    # segments, ``driver.run_s`` is the segments alone.
    spans = {
        "driver.import_s": (_PROCESS_START, imported),
        "driver.build_s": (imported, built),
        "driver.plan_s": (plan[0], plan[1]),
        "driver.run_s": (run_started, ran),
        "driver.audit_s": (audit_started, time.perf_counter()),
    }
    result["driver"] = {
        name: end - start for name, (start, end) in spans.items()
    }
    result["driver"]["driver.run_s"] = run_s
    result["driver"]["driver.host_slowdown"] = slowdown
    result["spans"] = [
        {
            "name": name,
            "start_s": start - _PROCESS_START,
            "end_s": end - _PROCESS_START,
            "parent": "execution",
        }
        for name, (start, end) in spans.items()
    ]
    if profiler is not None:
        from benchmarks.e2e.layers import ledger

        result["layers"] = ledger(pstats.Stats(profiler))
    return result


def mirror_matches_run_experiment(config: Any) -> Optional[str]:
    """``None`` when this mirror and ``run_experiment`` agree on ``config``.

    Compares the whole-run summary and the per-interval digest, so a
    step added to ``run_experiment`` but not here (or the reverse) shows.
    """
    from repro.experiments import run_experiment

    mirrored = execute(config, quiesce=False)
    reference = run_experiment(config)
    if mirrored["summary"] != reference.summary:
        return (
            f"summary differs: mirror {mirrored['summary']} vs "
            f"run_experiment {reference.summary}"
        )
    if mirrored["digest"] != series_digest(reference.intervals):
        return "per-interval digest differs from run_experiment"
    return None


def main() -> int:
    job = json.load(sys.stdin)
    from repro.experiments.config import config_from_dict

    config = config_from_dict(job["config"])
    result = execute(config, job["quiesce"], job["traced"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
