"""Experiment runner: assemble the system, run one evaluation cell.

Mirrors the paper's procedure (§4.1): build the cluster and dataset,
warm the system up for 10 intervals of pure normal traffic, then start
the repartitioning with the chosen scheduler and measure per-interval
RepRate / throughput / latency / failure rate until the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..cluster.cluster import Cluster
from ..core.repartitioner import Repartitioner, collector_paused
from ..core.schedulers import (
    AfterAllScheduler,
    ApplyAllScheduler,
    FeedbackConfig,
    FeedbackScheduler,
    HybridScheduler,
    PiggybackConfig,
    PiggybackScheduler,
    Scheduler,
)
from ..core.session import RepartitionSession
from ..elasticity import ElasticityController
from ..errors import ConfigError
from ..faults import FaultInjector
from ..metrics.collectors import IntervalRecord, MetricsCollector
from ..metrics.report import summarise
from ..partitioning.cost_model import CostModel
from ..partitioning.optimizer import RepartitionOptimizer
from ..routing.epoch import PartitionMapStore
from ..routing.partition_map import PartitionMap
from ..routing.router import QueryRouter
from ..sim.environment import Environment
from ..sim.events import Event
from ..sim.random import RandomStreams
from ..txn.executor import ExecutorConfig, TransactionExecutor
from ..txn.manager import TransactionManager, TransactionManagerConfig
from ..txn.two_phase_commit import TwoPhaseCommitCoordinator
from ..workload.arrivals import (
    ArrivalConfig,
    PoissonArrivalProcess,
    calibrate_rate,
)
from ..workload.dataset import (
    PlacementConfig,
    choose_distributed_types,
    initial_placement,
    load_stores,
    place_unprofiled_keys,
)
from ..workload.generator import WorkloadSampler, build_profile
from ..workload.profile import WorkloadProfile
from .config import ExperimentConfig
from .tables import setpoint_for


@dataclass
class System:
    """All assembled components of one experiment (exposed for examples)."""

    config: ExperimentConfig
    env: Environment
    streams: RandomStreams
    cluster: Cluster
    profile: WorkloadProfile
    distributed_type_ids: set[int]
    store: PartitionMapStore
    router: QueryRouter
    cost_model: CostModel
    executor: TransactionExecutor
    tm: TransactionManager
    metrics: MetricsCollector
    arrivals: PoissonArrivalProcess
    repartitioner: Repartitioner
    arrival_rate_txn_per_s: float
    fault_injector: Optional[FaultInjector] = None
    elasticity_controller: Optional[ElasticityController] = None


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    config: ExperimentConfig
    intervals: list[IntervalRecord]
    repartition_start_interval: int
    rep_ops_total: int
    repartition_completed_at: Optional[float]
    arrival_rate_txn_per_s: float
    summary: dict[str, float] = field(default_factory=dict)

    @property
    def measured(self) -> list[IntervalRecord]:
        """Intervals from repartition start onward (the paper's x-axis)."""
        return self.intervals[self.repartition_start_interval:]

    @property
    def completion_interval(self) -> Optional[int]:
        """Interval index (relative to start) when RepRate hit 1.0."""
        for i, record in enumerate(self.measured):
            if record.rep_ops_total and record.rep_rate >= 1.0:
                return i
        return None


def make_scheduler(
    config: ExperimentConfig, normal_cost_hint: float
) -> Scheduler:
    """Instantiate the configured scheduling strategy."""
    name = config.scheduler
    sched_cfg = config.scheduling
    if name == "ApplyAll":
        return ApplyAllScheduler()
    if name == "AfterAll":
        return AfterAllScheduler()
    if name == "Piggyback":
        return PiggybackScheduler(
            PiggybackConfig(max_ops_per_carrier=sched_cfg.max_ops_per_carrier)
        )
    setpoint = sched_cfg.setpoint
    if setpoint is None:
        setpoint = setpoint_for(
            name, config.distribution, config.load, config.alpha
        )
    feedback_config = FeedbackConfig(
        setpoint=setpoint,
        kp=sched_cfg.kp,
        ki=sched_cfg.ki,
        kd=sched_cfg.kd,
        max_promotions_per_interval=sched_cfg.max_promotions_per_interval,
        normal_cost_hint=normal_cost_hint,
    )
    if name == "Feedback":
        return FeedbackScheduler(feedback_config)
    if name == "Hybrid":
        return HybridScheduler(
            feedback_config,
            PiggybackConfig(max_ops_per_carrier=sched_cfg.max_ops_per_carrier),
        )
    raise ConfigError(f"unknown scheduler {name!r}")  # pragma: no cover


def build_system(config: ExperimentConfig) -> System:
    """Assemble every component of one experiment (does not run it)."""
    env = Environment()
    streams = RandomStreams(config.seed)
    cluster = Cluster(env, config.cluster, streams)

    profile = build_profile(config.workload)
    distributed_ids = choose_distributed_types(
        profile, config.alpha, streams.stream("placement")
    )
    pmap = initial_placement(
        profile, cluster.partition_ids, distributed_ids,
        # The generated key space is exactly ``range(tuple_count)``.
        pmap=PartitionMap(config.workload.tuple_count),
    )
    place_unprofiled_keys(
        pmap, config.workload.tuple_count, cluster.partition_ids
    )
    load_stores(cluster, pmap, PlacementConfig(alpha=config.alpha),
                streams.stream("values"))

    store = PartitionMapStore(
        pmap, max_delta_log=config.runtime.epoch_log_limit
    )
    router = QueryRouter(store)
    cost_model = CostModel(
        base_cost=config.cost.base_cost,
        rep_op_cost=config.cost.rep_op_cost,
        piggyback_discount=config.cost.piggyback_discount,
    )
    twopc = TwoPhaseCommitCoordinator(env, cluster.network)
    executor = TransactionExecutor(
        env,
        cluster,
        router,
        cost_model,
        twopc,
        ExecutorConfig(
            lock_timeout_s=config.runtime.lock_timeout_s,
            rep_op_failure_probability=(
                config.runtime.rep_op_failure_probability
            ),
            isolation=config.runtime.isolation,
            per_txn_overhead_units=config.runtime.per_txn_overhead_units,
            stale_route_policy=config.runtime.stale_route_policy,
        ),
        rng=streams.stream("failures"),
    )
    metrics = MetricsCollector(env, interval_s=config.runtime.interval_s)
    store.on_publish = lambda _epoch: metrics.record_epoch_publish()
    router.on_forwarded_read = lambda _key: metrics.record_forwarded_read()
    tm = TransactionManager(
        env,
        executor,
        metrics,
        TransactionManagerConfig(
            max_concurrent=config.runtime.max_concurrent,
            max_attempts=config.runtime.max_attempts,
            retry_delay_s=config.runtime.retry_delay_s,
            retry_backoff_factor=config.runtime.retry_backoff_factor,
            max_retry_delay_s=config.runtime.max_retry_delay_s,
            retry_jitter=config.runtime.retry_jitter,
            queue_timeout_s=config.runtime.queue_timeout_s,
        ),
        rng=streams.stream("retry-jitter"),
    )
    # The TM needs the collector at construction and the collector probes
    # the TM's queue, so the probe is wired second.
    metrics.set_queue_length_probe(lambda: len(tm.queue))
    metrics.set_node_state_probe(cluster.state_counts)

    fault_injector = None
    if config.faults is not None and config.faults.enabled:
        # Fault injection makes the WAL the mandatory write path (the
        # initial dataset is checkpointed so it survives a crash) and
        # in-service jobs killable.
        for node in cluster.nodes:
            node.enable_fault_injection()
        fault_injector = FaultInjector(
            env,
            cluster,
            config.faults,
            rng=streams.stream("faults"),
            metrics=metrics,
        )
        fault_injector.start()
        injector = fault_injector

        def _watch_new_node(node: "Any") -> None:
            # Nodes added by elasticity are just as killable as the
            # originals: WAL write path on, lifecycle process spawned.
            node.enable_fault_injection()
            injector.watch_node(node)

        cluster.on_node_added.append(_watch_new_node)

    expected_cost = cost_model.expected_cost_per_txn(profile.types, pmap)
    rate = calibrate_rate(
        config.utilisation_target,
        cluster.total_capacity_units_per_s,
        expected_cost,
    )
    sampler = WorkloadSampler(
        profile, config.workload, streams.stream("workload")
    )
    horizon = config.runtime.interval_s * (
        config.runtime.warmup_intervals + config.runtime.measure_intervals
    )
    arrivals = PoissonArrivalProcess(
        env,
        tm,
        sampler,
        ArrivalConfig(
            rate_txn_per_s=rate, interval_s=config.runtime.interval_s
        ),
        streams.stream("arrivals"),
        horizon_s=horizon,
    )
    normal_cost_hint = max(
        rate * config.runtime.interval_s * config.cost.base_cost,
        config.cost.base_cost,
    )
    repartitioner = Repartitioner(
        env, tm, router, metrics, cost_model,
        make_scheduler(config, normal_cost_hint),
    )

    elasticity_controller = None
    if config.elasticity is not None and config.elasticity.enabled:
        elasticity_controller = ElasticityController(
            cluster, repartitioner, profile, config.elasticity
        )
        elasticity_controller.start()
    return System(
        config=config,
        env=env,
        streams=streams,
        cluster=cluster,
        profile=profile,
        distributed_type_ids=distributed_ids,
        store=store,
        router=router,
        cost_model=cost_model,
        executor=executor,
        tm=tm,
        metrics=metrics,
        arrivals=arrivals,
        repartitioner=repartitioner,
        arrival_rate_txn_per_s=rate,
        fault_injector=fault_injector,
        elasticity_controller=elasticity_controller,
    )


#: Optional hook rewriting the ranked spec list before deployment; used
#: by the ablation benchmarks (granularity, ranking order).
SpecTransform = Any


def start_repartitioning(
    system: System, spec_transform: Optional[SpecTransform] = None
) -> RepartitionSession:
    """Derive, rank, and begin deploying the repartition plan (now)."""
    with collector_paused():
        # Plan against the post-transition node set: ACTIVE plus JOINING
        # partitions are placement targets, DRAINING/RETIRED are not.
        optimizer = RepartitionOptimizer(
            system.cost_model, system.cluster.placement_partition_ids
        )
        types_to_fix = [
            t for t in system.profile.types
            if t.type_id in system.distributed_type_ids
        ]
        plan = optimizer.derive_plan(
            system.profile, system.router.store.current_epoch, types_to_fix
        )
        specs = system.repartitioner.rank_plan(plan, system.profile)
        del plan  # the specs hold all it made; free it before the submit
        if spec_transform is not None:
            specs = spec_transform(specs)
        system.repartitioner.submit(specs)
    session = system.repartitioner.session
    assert session is not None
    return session


def run_experiment(
    config: ExperimentConfig,
    spec_transform: Optional[SpecTransform] = None,
) -> ExperimentResult:
    """Run one evaluation cell start to finish."""
    system = build_system(config)
    env = system.env
    interval_s = config.runtime.interval_s
    warmup_s = interval_s * config.runtime.warmup_intervals

    def kickoff() -> Generator[Event, Any, None]:
        if warmup_s > 0:
            yield env.timeout(warmup_s)
        start_repartitioning(system, spec_transform)

    env.process(kickoff())
    horizon = warmup_s + interval_s * config.runtime.measure_intervals
    env.run(until=horizon + 1e-9)

    session = system.repartitioner.session
    intervals = system.metrics.intervals
    result = ExperimentResult(
        config=config,
        intervals=intervals,
        repartition_start_interval=config.runtime.warmup_intervals,
        rep_ops_total=system.metrics.rep_ops_total,
        repartition_completed_at=(
            session.completed_at if session is not None else None
        ),
        arrival_rate_txn_per_s=system.arrival_rate_txn_per_s,
    )
    result.summary = summarise(result.measured)
    return result
