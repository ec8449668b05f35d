"""Experiment configuration (paper §4.1 "Experimental Configuration").

An :class:`ExperimentConfig` captures one cell of the paper's evaluation
matrix: workload distribution (Zipf/Uniform) × load level (High/Low) ×
α (fraction of transactions to fix) × scheduling algorithm.

Four scale presets are provided:

* ``paper_scale()`` — the paper's literal sizes (500k tuples, 23k-30k
  transaction types, 45-minute runs).  Faithful but slow in a pure-
  Python simulator.
* ``medium_scale()`` — thousands of types, the paper's full 120-interval
  window; minutes per run.
* ``bench_scale()`` (default) — a proportionally scaled-down system that
  preserves every ratio that drives the results (offered load relative
  to capacity, repartition work relative to capacity, distributed-vs-
  local cost factor, interval structure), so the figures keep their
  shape while a full run takes seconds.
* ``production_scale()`` — the cluster-scale tier (100-500 nodes,
  1M-10M tuples) exercising the memory-lean storage/routing fast paths;
  the ``BENCH_scale.json`` perf tier is built on it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Optional

from ..cluster.cluster import ClusterConfig
from ..elasticity import ElasticityEvent, ElasticityScheduleConfig
from ..errors import ConfigError
from ..faults import FaultEvent, FaultScheduleConfig
from ..workload.generator import (
    PAPER_TUPLE_COUNT,
    PAPER_UNIFORM_TYPES,
    PAPER_ZIPF_S,
    PAPER_ZIPF_TYPES,
    WorkloadConfig,
)

#: Load levels (paper §4.1): offered load as a fraction of capacity
#: under the original (pre-repartitioning) plan.
HIGH_LOAD_UTILISATION = 1.3
LOW_LOAD_UTILISATION = 0.65

SCHEDULER_NAMES = ("ApplyAll", "AfterAll", "Feedback", "Piggyback", "Hybrid")


@dataclass(frozen=True)
class CostConfig:
    """Cost-model parameters."""

    base_cost: float = 1.0
    #: Moving one tuple (insert + delete + index maintenance + transfer)
    #: costs a multiple of a simple 5-query transaction's work; this
    #: ratio makes ApplyAll's full-plan deployment span several
    #: intervals, as in the paper (20/12/4 intervals for α=100/60/20%).
    rep_op_cost: float = 2.0
    #: Fraction of an op's cost saved when piggybacked (§3.4's saved
    #: locking + distributed-commit overhead).
    piggyback_discount: float = 0.75


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-environment parameters."""

    interval_s: float = 20.0
    warmup_intervals: int = 10
    measure_intervals: int = 120
    lock_timeout_s: float = 5.0
    #: Transactions older than this when dispatched are aborted (client /
    #: JTA transaction timeout).  ``None`` disables the deadline.
    queue_timeout_s: Optional[float] = 80.0
    rep_op_failure_probability: float = 0.0
    max_concurrent: int = 50
    max_attempts: int = 2
    retry_delay_s: float = 0.1
    #: PostgreSQL isolation level of the paper's prototype (§4.1);
    #: "serializable" is available as an ablation.
    isolation: str = "read_committed"
    #: Fixed per-transaction begin/commit work (granularity ablation).
    per_txn_overhead_units: float = 0.0
    #: Retry backoff policy (used heavily under fault injection; the
    #: defaults reproduce the fixed-delay behaviour for fault-free runs
    #: with the standard two-attempt budget).
    retry_backoff_factor: float = 2.0
    max_retry_delay_s: float = 10.0
    retry_jitter: float = 0.0
    #: What a transaction does when a tuple it routed moved under it:
    #: ``"follow"`` re-routes to the tuple's new home (the paper's
    #: forwarding behaviour); ``"abort"`` raises a retryable
    #: ``stale_route`` abort judged against the epoch pinned at
    #: admission (optimistic routing validation, an ablation).
    stale_route_policy: str = "follow"
    #: Bound on the partition-map store's epoch delta log; epochs older
    #: than the window (and unpinned) become unreadable.
    epoch_log_limit: int = 1024

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError("interval must be positive")
        if self.warmup_intervals < 0 or self.measure_intervals < 1:
            raise ConfigError("bad interval counts")
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise ConfigError("queue timeout must be positive or None")
        if self.stale_route_policy not in ("follow", "abort"):
            raise ConfigError(
                f"unknown stale_route_policy {self.stale_route_policy!r}; "
                "expected 'follow' or 'abort'"
            )
        if self.epoch_log_limit < 1:
            raise ConfigError("epoch log limit must be >= 1")


@dataclass(frozen=True)
class SchedulerConfig:
    """Strategy-specific knobs (paper §3.3-§3.5 and Table 1)."""

    #: Feedback/Hybrid setpoint on the (normal+rep)/normal scale; when
    #: ``None`` the Table 1 value for the experiment cell is used.
    setpoint: Optional[float] = None
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    max_promotions_per_interval: int = 20
    max_ops_per_carrier: int = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell."""

    name: str = "experiment"
    seed: int = 0
    scheduler: str = "Hybrid"
    distribution: str = "zipf"
    load: str = "high"
    alpha: float = 1.0
    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(
            node_count=5, capacity_units_per_s=4.0
        )
    )
    workload: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(
            tuple_count=3_000, distinct_types=600
        )
    )
    cost: CostConfig = field(default_factory=CostConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    scheduling: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Optional crash/restart schedule; ``None`` (or a schedule with
    #: nothing in it) runs fault-free with zero overhead.
    faults: Optional[FaultScheduleConfig] = None
    #: Optional scale-out/in schedule; ``None`` (or a schedule with
    #: nothing in it) runs with a static node set and zero overhead.
    elasticity: Optional[ElasticityScheduleConfig] = None

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {SCHEDULER_NAMES}"
            )
        if self.distribution not in ("zipf", "uniform"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.load not in ("high", "low"):
            raise ConfigError(f"unknown load level {self.load!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1]: {self.alpha}")

    @property
    def utilisation_target(self) -> float:
        """Offered load relative to capacity under the original plan."""
        return (
            HIGH_LOAD_UTILISATION if self.load == "high" else LOW_LOAD_UTILISATION
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with replaced top-level fields."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Plain-dict (JSON-safe) round-tripping
# ---------------------------------------------------------------------------
# The parallel engine ships configs to worker processes as one shared base
# document plus a tiny per-cell delta, so a config must survive
# dataclass -> dict -> JSON -> dict -> dataclass exactly (field equality,
# and therefore an identical cache key).

#: Top-level ExperimentConfig fields that hold nested config dataclasses
#: rebuilt with plain keyword arguments.
_NESTED_CONFIG_TYPES = {
    "cluster": ClusterConfig,
    "workload": WorkloadConfig,
    "cost": CostConfig,
    "runtime": RuntimeConfig,
    "scheduling": SchedulerConfig,
}


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """``config`` as a JSON-safe nested dict of primitives."""
    return asdict(config)


def _build(cls: Any, values: dict[str, Any], where: str) -> Any:
    """``cls(**values)``, naming any field ``cls`` does not have (a
    document saved before a field was retired still carries it)."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(
            f"unknown {where} config field(s): {', '.join(unknown)}"
        )
    return cls(**values)


def _schedule_from_dict(
    name: str, value: Optional[dict[str, Any]], schedule: Any, event: Any
) -> Any:
    if value is None:
        return None
    events = tuple(
        _build(event, item, f"{name}.events") for item in value["events"]
    )
    return _build(schedule, {**value, "events": events}, name)


def _field_from_dict(name: str, value: Any) -> Any:
    if name == "faults":
        return _schedule_from_dict(
            name, value, FaultScheduleConfig, FaultEvent
        )
    if name == "elasticity":
        return _schedule_from_dict(
            name, value, ElasticityScheduleConfig, ElasticityEvent
        )
    nested = _NESTED_CONFIG_TYPES.get(name)
    if nested is not None:
        return _build(nested, value, name)
    return value


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict` output.

    Tolerates the JSON round trip (tuples come back as lists) and raises
    the usual :class:`~repro.errors.ConfigError` validation on bad values.
    """
    return _build(
        ExperimentConfig,
        {name: _field_from_dict(name, value) for name, value in data.items()},
        "experiment",
    )


def config_delta(
    base: ExperimentConfig, config: ExperimentConfig
) -> dict[str, Any]:
    """Top-level fields of ``config`` that differ from ``base``.

    Applying the delta over ``base``'s dict form reconstructs ``config``
    exactly: ``config_from_dict({**config_to_dict(base), **delta})``.
    Cells of one figure grid share everything but scheduler/α/name, so
    the delta is a handful of scalars instead of the full document.
    """
    base_fields = asdict(base)
    return {
        name: value
        for name, value in asdict(config).items()
        if value != base_fields[name]
    }


def bench_scale(
    scheduler: str = "Hybrid",
    distribution: str = "zipf",
    load: str = "high",
    alpha: float = 1.0,
    seed: int = 0,
    measure_intervals: int = 40,
    warmup_intervals: int = 5,
    faults: Optional[FaultScheduleConfig] = None,
    elasticity: Optional[ElasticityScheduleConfig] = None,
) -> ExperimentConfig:
    """The scaled-down preset the benchmark harness uses."""
    # Type counts mirror the paper's 30,000 (uniform) vs 23,457 (Zipf)
    # proportion; keeping arrivals-per-interval well below the type count
    # preserves the paper's "few carriers under uniform/low load" effect
    # that separates Piggyback from Hybrid.
    distinct = 600 if distribution == "uniform" else 470
    workload = WorkloadConfig(
        tuple_count=3_000,
        distinct_types=distinct,
        distribution=distribution,
        zipf_s=PAPER_ZIPF_S,
    )
    runtime = RuntimeConfig(
        measure_intervals=measure_intervals,
        warmup_intervals=warmup_intervals,
    )
    return ExperimentConfig(
        name=f"{scheduler}-{distribution}-{load}-a{int(alpha * 100)}",
        seed=seed,
        scheduler=scheduler,
        distribution=distribution,
        load=load,
        alpha=alpha,
        workload=workload,
        runtime=runtime,
        faults=faults,
        elasticity=elasticity,
    )


def medium_scale(
    scheduler: str = "Hybrid",
    distribution: str = "zipf",
    load: str = "high",
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentConfig:
    """A higher-fidelity preset between bench and paper scale.

    ~4,000 transaction types over 25,000 tuples with the paper's full
    120-interval measurement window; a run takes a few minutes rather
    than the bench preset's seconds.
    """
    distinct = 4_000 if distribution == "uniform" else 3_200
    workload = WorkloadConfig(
        tuple_count=25_000,
        distinct_types=distinct,
        distribution=distribution,
        zipf_s=PAPER_ZIPF_S,
    )
    cluster = ClusterConfig(node_count=5, capacity_units_per_s=28.0)
    runtime = RuntimeConfig(
        measure_intervals=120,
        warmup_intervals=10,
        max_concurrent=150,
    )
    return ExperimentConfig(
        name=f"medium-{scheduler}-{distribution}-{load}-a{int(alpha * 100)}",
        seed=seed,
        scheduler=scheduler,
        distribution=distribution,
        load=load,
        alpha=alpha,
        cluster=cluster,
        workload=workload,
        runtime=runtime,
    )


def production_scale(
    scheduler: str = "Hybrid",
    distribution: str = "zipf",
    load: str = "high",
    alpha: float = 1.0,
    seed: int = 0,
    node_count: int = 100,
    tuple_count: int = 1_000_000,
    measure_intervals: int = 40,
    warmup_intervals: int = 5,
) -> ExperimentConfig:
    """The cluster-scale tier: 100-500 nodes, 1M-10M tuples.

    Everything the paper fixes at 5-node/500k scale is scaled
    proportionally: transaction-type counts keep the paper's
    types-per-tuple ratios (30,000/500,000 uniform, 23,457/500,000
    Zipf), per-node capacity stays at the medium preset's ~40 units/s so
    offered-load calibration is unchanged, and the admission window
    grows with the cluster.
    """
    if node_count < 1:
        raise ConfigError(f"need at least one node, got {node_count}")
    if tuple_count < 500_000:
        raise ConfigError(
            f"production scale starts at 500k tuples, got {tuple_count}"
        )
    if distribution == "uniform":
        distinct = tuple_count * PAPER_UNIFORM_TYPES // PAPER_TUPLE_COUNT
    else:
        distinct = tuple_count * PAPER_ZIPF_TYPES // PAPER_TUPLE_COUNT
    workload = WorkloadConfig(
        tuple_count=tuple_count,
        distinct_types=distinct,
        distribution=distribution,
        zipf_s=PAPER_ZIPF_S,
    )
    cluster = ClusterConfig(node_count=node_count, capacity_units_per_s=40.0)
    runtime = RuntimeConfig(
        measure_intervals=measure_intervals,
        warmup_intervals=warmup_intervals,
        max_concurrent=max(2_000, 20 * node_count),
    )
    return ExperimentConfig(
        name=(
            f"production-{scheduler}-{distribution}-{load}"
            f"-n{node_count}-a{int(alpha * 100)}"
        ),
        seed=seed,
        scheduler=scheduler,
        distribution=distribution,
        load=load,
        alpha=alpha,
        cluster=cluster,
        workload=workload,
        runtime=runtime,
    )


def paper_scale(
    scheduler: str = "Hybrid",
    distribution: str = "zipf",
    load: str = "high",
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The paper's literal configuration (slow; provided for fidelity).

    5 nodes, 500,000 tuples, 30,000 (uniform) / 23,457 (Zipf s=1.16)
    transaction types, 20 s intervals, 10 warm-up intervals, 45-minute
    runs (125 measured intervals following the 10 warm-up ones).
    """
    distinct = (
        PAPER_ZIPF_TYPES if distribution == "zipf" else PAPER_UNIFORM_TYPES
    )
    workload = WorkloadConfig(
        tuple_count=PAPER_TUPLE_COUNT,
        distinct_types=distinct,
        distribution=distribution,
        zipf_s=PAPER_ZIPF_S,
    )
    cluster = ClusterConfig(node_count=5, capacity_units_per_s=400.0)
    runtime = RuntimeConfig(
        measure_intervals=125,
        warmup_intervals=10,
        max_concurrent=500,
    )
    return ExperimentConfig(
        name=f"paper-{scheduler}-{distribution}-{load}-a{int(alpha * 100)}",
        seed=seed,
        scheduler=scheduler,
        distribution=distribution,
        load=load,
        alpha=alpha,
        cluster=cluster,
        workload=workload,
        runtime=runtime,
    )
