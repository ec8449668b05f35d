"""Layers of the system and the cProfile -> per-layer ledger.

A layer is a package of ``src/repro``.  One traced execution runs under
``cProfile``; every profiled function is bucketed by the path of the
module that defines it.  Built-in and stdlib functions have no layer of
their own: their self time is charged to the layer of the function that
called them (the pstats caller edges); what no ``repro`` function called
directly is ``other`` (about 1 % of a cell).
"""

from __future__ import annotations

import pstats
from typing import Optional

#: Every package or top-level module of ``src/repro`` and its layer.  A
#: new package must be added here: an unknown one raises instead of
#: silently landing in ``other`` (test_e2e_smoke checks the tree).
PACKAGE_LAYER: dict[str, str] = {
    "sim": "sim",
    "locking": "locking",
    "txn": "txn",
    "routing": "routing",
    "storage": "storage",
    "cluster": "cluster",
    "core": "core",
    "partitioning": "partitioning",
    "workload": "workload",
    "metrics": "metrics",
    "control": "control",
    "elasticity": "elasticity",
    "faults": "faults",
    "experiments": "experiments",
    # Never on a cell's path: the linter, the CLI and shared constants.
    "analysis": "other",
    "cli": "other",
    "errors": "other",
    "types": "other",
    "__init__": "other",
    "__main__": "other",
}

#: Sub-packages that are layers of their own.
SUBPACKAGE_LAYER: dict[tuple[str, str], str] = {
    ("core", "schedulers"): "core.schedulers",
}

LAYERS: tuple[str, ...] = (
    "sim", "locking", "txn", "routing", "storage", "cluster", "core",
    "core.schedulers", "partitioning", "workload", "metrics", "control",
    "elasticity", "faults", "experiments", "other",
)

_MARKER = "/src/repro/"


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file, or ``None`` outside ``src/repro``."""
    _, marker, rest = filename.replace("\\", "/").rpartition(_MARKER)
    if not marker:
        return None
    parts = rest.split("/")
    head = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if len(parts) > 2 and (head, parts[1]) in SUBPACKAGE_LAYER:
        return SUBPACKAGE_LAYER[(head, parts[1])]
    return PACKAGE_LAYER[head]


def ledger(stats: pstats.Stats) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from one profile.

    ``calls`` counts calls of the layer's own functions only, so it
    repeats exactly for a seed; ``self_s`` adds the built-in/stdlib
    time the layer's functions caused.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    table = stats.stats  # type: ignore[attr-defined]
    for func, (_cc, ncalls, self_s, _ct, callers) in table.items():
        layer = layer_of(func[0])
        if layer is not None:
            out[layer]["self_s"] += self_s
            out[layer]["calls"] += ncalls
            continue
        # pstats caller edge: (cc, nc, tt, ct) of ``func`` under ``caller``.
        for caller, edge in callers.items():
            caller_layer = layer_of(caller[0])
            if caller_layer is not None:
                out[caller_layer]["self_s"] += edge[2]
                self_s -= edge[2]
        out["other"]["self_s"] += self_s
    return out
