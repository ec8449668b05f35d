"""Golden per-interval series: one hash per scheduler and elastic cell.

The benchmark workloads all run Hybrid, so nothing else pins the series
of the other four strategies, or of the push-less elastic case the
escalation pump exists for.  Each golden is the sha256 of the canonical
JSON of ``result_to_state_dict(run_experiment(config))`` — every field
of every interval record, the summary and the completion time.

A refactor leaves these untouched.  A deliberate model change re-bases
them in its own commit and says so in CHANGES.md: run this file, copy
the ``got`` hashes from the failures.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster import ClusterConfig
from repro.elasticity import parse_elasticity_schedule
from repro.experiments import bench_scale, run_experiment
from repro.faults import parse_fault_schedule
from repro.metrics import result_to_state_dict
from repro.workload import WorkloadConfig

#: A node joins during warm-up (the controller's rebalance opens the
#: session, the workload plan joins it at t=40), node 0 drains while
#: that plan is still deploying and crashes mid-drain, so migrations are
#: requeued and the straggler sweep plans follow-up drains.
ELASTICITY = "20:add:1,60:drain:0"
FAULTS = "70:crash:0,110:restart:0"

STATIC_GOLDENS = {
    "ApplyAll": (
        "76cdf647898726f38d33ece00c71585e4a155b8502ec08eb75ecb80beb2e28ab"
    ),
    "AfterAll": (
        "0aae71b95be800f9c8499684965508b2c28cb44c64a0b2d8741e9a25bc36c338"
    ),
    "Feedback": (
        "ef755125ed210bd9608278c943f17f1f0d8e66f3c3dd711dc8194b446299a093"
    ),
    "Piggyback": (
        "4694e3075972d919881df008cf6ebbf07e65e448d9416272d732a458ba8098ef"
    ),
    "Hybrid": (
        "046a089b21acb9f8509be8b93db0bb06e21d91e2446e9afd3c080f8067130f3f"
    ),
}

ELASTIC_GOLDENS = {
    "Hybrid": (
        "46b0ce7bb296147925449ce9dad82ae1113132a6b3c106370db23375e59218e2"
    ),
    "Piggyback": (
        "284bad5101efad8f9a67eec978c76e30e452c9a5409b0e94d1af8d9498a2c29f"
    ),
}


def small_cell(scheduler, **kwargs):
    config = bench_scale(
        scheduler=scheduler, warmup_intervals=2, seed=7, **kwargs
    )
    return dataclasses.replace(
        config,
        cluster=ClusterConfig(node_count=3, capacity_units_per_s=4.0),
        workload=WorkloadConfig(
            tuple_count=200,
            distinct_types=40,
            distribution=config.workload.distribution,
        ),
    )


def series_hash(config):
    state = result_to_state_dict(run_experiment(config))
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("scheduler", sorted(STATIC_GOLDENS))
def test_static_cell_series(scheduler):
    got = series_hash(small_cell(scheduler, measure_intervals=8))
    assert got == STATIC_GOLDENS[scheduler]


@pytest.mark.parametrize("scheduler", sorted(ELASTIC_GOLDENS))
def test_elastic_cell_series(scheduler):
    config = small_cell(
        scheduler,
        measure_intervals=14,
        elasticity=parse_elasticity_schedule(ELASTICITY),
        faults=parse_fault_schedule(FAULTS),
    )
    got = series_hash(config)
    assert got == ELASTIC_GOLDENS[scheduler]
