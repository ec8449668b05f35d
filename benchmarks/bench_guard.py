"""Schema and regression guard for the committed ``BENCH_*.json`` files.

Two subcommands, both used by the perf-smoke CI job and importable from
the benchmark harness itself:

``check-schema [PATH] [--kind engine|routing|scale|locking|generic]``
    Validate that the benchmark file carries every required field with
    the right type, exit 1 otherwise.  The schema *kind* is inferred
    from the filename (``BENCH_engine.json`` -> engine,
    ``BENCH_routing.json`` -> routing, ``BENCH_locking.json`` ->
    locking, any other ``BENCH_*.json`` -> generic) unless ``--kind``
    overrides it.  Every kind requires the provenance trio —
    ``recorded_at``, ``python``, ``cpu_count`` — so a number can never
    be committed without the context needed to judge whether it is
    comparable.  The locking kind also gates the file's
    ``depth128_over_depth1`` ratio, which is machine-independent.

``compare BASELINE FRESH [--threshold 0.2]``
    Fail (exit 1) when a fresh run's kernel throughput regresses more
    than ``threshold`` (default 20%) against the committed baseline.
    Comparing numbers from different machines is meaningless, so the
    comparison is *skipped* (exit 0, with a message) unless the two
    files agree on ``cpu_count`` and the python major.minor version.

Wall-clock sections (cells, cache) are recorded for trajectory but not
gated: they are far noisier than the pure kernel loop on shared CI
hardware.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: Provenance every committed benchmark file must carry, whatever it
#: measures: when it was recorded, on which interpreter, on how many
#: cores.  Without these a committed number cannot be judged comparable.
PROVENANCE_FIELDS: dict[str, tuple[type, ...]] = {
    "recorded_at": (str,),
    "python": (str,),
    "cpu_count": (int,),
}

#: Required fields for ``BENCH_engine.json`` and their accepted types.
#: ``None`` is legal exactly where a 1-core box cannot measure a speedup
#: honestly.
REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    **PROVENANCE_FIELDS,
    "parallel_jobs": (int,),
    "kernel_events_per_s": (int, float),
    "kernel_mixed_events_per_s": (int, float),
    "kernel_run_intervals_events_per_s": (int, float),
    "standard_cell_wall_clock_s": (int, float),
    "figure4_scale_cells": (int,),
    "serial_wall_clock_s": (int, float),
    "parallel_wall_clock_s": (int, float, type(None)),
    "parallel_speedup": (int, float, type(None)),
    "parallel_skipped_reason": (str, type(None)),
    "speedup_by_jobs": (dict, type(None)),
    "cache_cold_wall_clock_s": (int, float),
    "cache_warm_wall_clock_s": (int, float),
    "cache_warm_executed": (int,),
    "cache_warm_hits": (int,),
}

#: Required fields for ``BENCH_routing.json`` (epoch-map microbench).
ROUTING_REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    **PROVENANCE_FIELDS,
    "map_sizes": (list,),
    "publish_batch": (int,),
    "route_read_per_s": (int, float),
    "route_write_per_s": (int, float),
    "pinned_epoch_read_per_s": (int, float),
    "epoch_publish_ms_by_map_size": (dict,),
    "partition_sizes_per_s_by_map_size": (dict,),
}

#: Required fields for ``BENCH_scale.json`` (cluster-scale tier).
SCALE_REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    **PROVENANCE_FIELDS,
    "tuple_count": (int,),
    "node_counts": (list,),
    "rss_unit": (str,),
    "build_wall_clock_s_by_nodes": (dict,),
    "peak_rss_by_nodes": (dict,),
    "route_read_per_s": (int, float),
    "pinned_epoch_read_per_s": (int, float),
    "epoch_publish_ms": (int, float),
    "bytes_per_tuple": (int, float),
    "map_bytes_per_key": (int, float),
    # End-to-end simulation section: an actual production_scale run
    # (arrivals + schedulers at 100+ nodes), not just the dataset and
    # routing layers.
    "e2e_node_count": (int,),
    "e2e_tuple_count": (int,),
    "e2e_scheduler": (str,),
    "e2e_interval_s": (int, float),
    "e2e_measure_intervals": (int,),
    "e2e_capacity_units_per_s": (int, float),
    "e2e_throughput_txn_per_min": (list,),
    "e2e_committed_total": (int,),
    "e2e_wall_clock_s": (int, float),
}

#: Required fields for ``BENCH_locking.json`` (hot-key queue drive).
LOCKING_REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    **PROVENANCE_FIELDS,
    "depths": (list,),
    "depth1_ops_per_s": (int, float),
    "depth16_ops_per_s": (int, float),
    "depth128_ops_per_s": (int, float),
    "depth128_over_depth1": (int, float),
    # The parent commit's reading of the same four numbers.
    "before": (dict, type(None)),
}

#: Ceiling on the cost of a lock operation at queue depth 128 relative
#: to depth 1.  A ratio of two rates from one process, so it holds on
#: any machine: 180-390 when every grant recomputed the whole queue's
#: wait edges, about 16 with edges added once at enqueue.
LOCKING_MAX_DEPTH128_OVER_DEPTH1 = 60

#: Field sets by schema kind; ``generic`` accepts any metrics but still
#: insists on provenance.
SCHEMAS: dict[str, dict[str, tuple[type, ...]]] = {
    "engine": REQUIRED_FIELDS,
    "routing": ROUTING_REQUIRED_FIELDS,
    "scale": SCALE_REQUIRED_FIELDS,
    "locking": LOCKING_REQUIRED_FIELDS,
    "generic": PROVENANCE_FIELDS,
}


def kind_for_path(path: str | Path) -> str:
    """The schema kind implied by a benchmark file's name."""
    stem = Path(path).stem  # e.g. "BENCH_engine"
    kind = stem.removeprefix("BENCH_").lower()
    return kind if kind in SCHEMAS else "generic"


#: The kernel metrics the regression gate protects.
KERNEL_METRICS = (
    "kernel_events_per_s",
    "kernel_mixed_events_per_s",
    "kernel_run_intervals_events_per_s",
)


def validate_schema(payload: Any, kind: str = "engine") -> list[str]:
    """Problems with ``payload`` as a benchmark document (empty = valid)."""
    if kind not in SCHEMAS:
        return [f"unknown schema kind: {kind}"]
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected an object"]
    problems = []
    for name, types in SCHEMAS[kind].items():
        if name not in payload:
            problems.append(f"missing field: {name}")
        elif not isinstance(payload[name], types) or isinstance(
            payload[name], bool
        ):
            problems.append(
                f"field {name} has type {type(payload[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if not problems and kind == "engine":
        # The parallel section must be null *consistently*: either the
        # speedup was measured, or a reason says why it was not.
        if (payload["parallel_speedup"] is None) != (
            payload["parallel_skipped_reason"] is not None
        ):
            problems.append(
                "parallel_speedup must be null iff "
                "parallel_skipped_reason is set"
            )
        if payload["cpu_count"] < 2 and payload["parallel_speedup"] is not None:
            problems.append(
                "parallel_speedup must be null when cpu_count < 2 "
                "(a single-core 'speedup' is timesharing noise)"
            )
    if not problems and kind == "locking":
        ratio = payload["depth128_over_depth1"]
        if ratio > LOCKING_MAX_DEPTH128_OVER_DEPTH1:
            problems.append(
                f"depth128_over_depth1 is {ratio}, above the gate of "
                f"{LOCKING_MAX_DEPTH128_OVER_DEPTH1}: a lock operation's "
                "cost grows with the queue again"
            )
    if not problems and kind == "scale":
        # The per-node-count series must cover exactly the node counts
        # the file claims to have measured.
        counts = {str(n) for n in payload["node_counts"]}
        for series in ("peak_rss_by_nodes", "build_wall_clock_s_by_nodes"):
            if set(payload[series]) != counts:
                problems.append(
                    f"{series} keys {sorted(payload[series])} do not match "
                    f"node_counts {sorted(counts)}"
                )
        # The e2e section must be internally consistent: one throughput
        # sample per measured interval, at the promised cluster size.
        series = payload["e2e_throughput_txn_per_min"]
        if len(series) != payload["e2e_measure_intervals"]:
            problems.append(
                f"e2e_throughput_txn_per_min has {len(series)} samples, "
                f"expected e2e_measure_intervals="
                f"{payload['e2e_measure_intervals']}"
            )
        if payload["e2e_node_count"] < 100:
            problems.append(
                "e2e_node_count must be >= 100 (the section exists to "
                "prove the simulation runs at cluster scale)"
            )
    return problems


def _python_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def compare(
    baseline: dict, fresh: dict, threshold: float = 0.2
) -> tuple[int, list[str]]:
    """(exit code, messages) for a baseline-vs-fresh regression check."""
    messages = []
    if baseline.get("cpu_count") != fresh.get("cpu_count"):
        return 0, [
            "skip: cpu_count differs "
            f"(baseline {baseline.get('cpu_count')}, "
            f"fresh {fresh.get('cpu_count')}) — not comparable hardware"
        ]
    if _python_minor(baseline.get("python", "")) != _python_minor(
        fresh.get("python", "")
    ):
        return 0, [
            "skip: python version differs "
            f"(baseline {baseline.get('python')}, "
            f"fresh {fresh.get('python')})"
        ]
    code = 0
    for metric in KERNEL_METRICS:
        base = baseline.get(metric)
        new = fresh.get(metric)
        if not base or not new:
            messages.append(f"skip {metric}: absent from one side")
            continue
        ratio = new / base
        line = f"{metric}: {base:.0f} -> {new:.0f} ({ratio:.2f}x)"
        if ratio < 1.0 - threshold:
            code = 1
            line += f"  REGRESSION (>{threshold:.0%} below baseline)"
        messages.append(line)
    return code, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check-schema", help="validate a benchmark file")
    check.add_argument(
        "path",
        nargs="?",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
    )
    check.add_argument(
        "--kind",
        choices=sorted(SCHEMAS),
        default=None,
        help="schema to apply (default: inferred from the filename)",
    )

    cmp_parser = sub.add_parser(
        "compare", help="fail on kernel-throughput regression"
    )
    cmp_parser.add_argument("baseline")
    cmp_parser.add_argument("fresh")
    cmp_parser.add_argument("--threshold", type=float, default=0.2)

    args = parser.parse_args(argv)

    if args.command == "check-schema":
        kind = args.kind or kind_for_path(args.path)
        payload = json.loads(Path(args.path).read_text())
        problems = validate_schema(payload, kind)
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.path}: schema OK ({kind})")
        return 1 if problems else 0

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    for payload, label in ((baseline, args.baseline), (fresh, args.fresh)):
        problems = validate_schema(payload)
        for problem in problems:
            print(f"schema ({label}): {problem}", file=sys.stderr)
        if problems:
            return 1
    code, messages = compare(baseline, fresh, args.threshold)
    for message in messages:
        print(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
