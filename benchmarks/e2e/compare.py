"""``run.py compare A B``: do two sets of runs agree, metric by metric?

``A`` and ``B`` are result files written by ``run.py`` or directories of
them; files are paired by name (workload, seed, trace).  One row per
workload and end-to-end metric: both medians with their quartiles, the
bound, and a verdict.

* Simulated metrics, model counters and ``calls_per_commit`` repeat
  exactly for a seed, so they are compared for equality: ``same`` or
  ``differs``.
* Host metrics: ``worse``/``better`` when B's median is beyond A's by
  more than the bound, ``unresolved`` when the run-to-run spread is
  wider than the bound and the runs of one side are not all beyond the
  runs of the other, otherwise ``same``.

Exits 1 when any row is ``worse``, ``differs`` or ``unresolved``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, EndToEnd


def load(path: pathlib.Path) -> dict[str, dict[str, Any]]:
    """Result records under ``path``, keyed by file name ("" for a file)."""
    if not path.is_dir():
        return {"": json.loads(path.read_text())}
    return {
        f.name: json.loads(f.read_text()) for f in sorted(path.glob("*.json"))
    }


def host_verdict(metric: EndToEnd, a: dict, b: dict) -> str:
    """Verdict for a noisy metric from both sides' medians and runs."""
    sign = 1.0 if metric.better == "lower" else -1.0
    # Positive = B worse, as a share of A's median.
    change = sign * (b["value"] - a["value"]) / a["value"]
    widest = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    a_runs = [sign * v for v in a["values"]]
    b_runs = [sign * v for v in b["values"]]
    separated = max(a_runs) < min(b_runs) or max(b_runs) < min(a_runs)
    if widest > metric.bound and not separated:
        return "unresolved"
    if change > metric.bound:
        return "worse"
    if change < -metric.bound:
        return "better"
    return "same"


def compare_records(a: dict[str, Any], b: dict[str, Any]) -> list[dict]:
    """Rows for one pair of runs of the same workload and seed."""
    digests = [
        {"value": [cell["digest"][:12] for cell in side["cells"]]}
        for side in (a, b)
    ]
    rows = [{
        "metric": "cell digests", "unit": "", "bound": 0.0,
        "a": digests[0], "b": digests[1],
        "verdict": "same" if digests[0] == digests[1] else "differs",
    }]
    for metric in END_TO_END:
        if a["traced"] and not metric.exact:
            # A traced record holds one untraced execution of one cell:
            # host timings are judged on the untraced runs only.
            continue
        left, right = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
        if metric.exact:
            verdict = "same" if left["value"] == right["value"] else "differs"
        else:
            verdict = host_verdict(metric, left, right)
        rows.append({
            "metric": metric.name, "unit": metric.unit,
            "bound": metric.bound, "a": left, "b": right,
            "verdict": verdict,
        })
    if "per_layer" in a and "per_layer" in b:
        for layer_metric in PER_LAYER:
            if not layer_metric.exact:
                continue
            left = a["per_layer"][layer_metric.name]
            right = b["per_layer"][layer_metric.name]
            rows.append({
                "metric": layer_metric.name, "unit": layer_metric.unit,
                "bound": 0.0, "a": left, "b": right,
                "verdict": (
                    "same" if left["value"] == right["value"] else "differs"
                ),
            })
    return rows


def _cell(side: dict[str, Any]) -> str:
    if isinstance(side["value"], list):
        return " ".join(side["value"])
    if "q1" in side:
        return f"{side['value']:.4f} [{side['q1']:.4f}, {side['q3']:.4f}]"
    return f"{side['value']:.4f}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A B")
        return 2
    a_set, b_set = (load(pathlib.Path(arg)) for arg in argv)
    shared = sorted(set(a_set) & set(b_set))
    if not shared:
        print("no result files in common")
        return 2
    bad = 0
    for key in shared:
        a, b = a_set[key], b_set[key]
        print(f"== {a['workload']} seed={a['seed']} trace={int(a['traced'])}")
        exact_same = 0
        for row in compare_records(a, b):
            if row["bound"] == 0.0 and row["verdict"] == "same":
                exact_same += 1
                continue
            if row["verdict"] not in ("same", "better"):
                bad += 1
            print(f"  {row['metric']:<30} {_cell(row['a']):>34} "
                  f"{_cell(row['b']):>34} {row['unit']:<8} "
                  f"bound {row['bound']:.2f}  {row['verdict']}")
        if exact_same:
            print(f"  {exact_same} exact counters and digests: same")
    only = sorted(set(a_set) ^ set(b_set))
    if only:
        print(f"unpaired: {', '.join(only)}")
    return 1 if bad else 0
