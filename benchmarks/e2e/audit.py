"""Correctness audit: the benchmark's *operations* are these checks.

A simulated abort under 1.3x overload is the model working, not a failed
benchmark operation.  What must never fail is the bookkeeping and the
placement: every check below is run, untimed, after each execution and
counted (attempted = checks run, failed = checks that did not hold).  A
failed check names the key or interval that broke it; it is reported,
never relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.node import NodeState
from repro.types import TxnStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments import System

#: The continuation after the timed run gives up after this many extra
#: intervals (the slowest seed seen needs under 20).
MAX_QUIESCE_INTERVALS = 400


@dataclass(frozen=True)
class Check:
    """One audit check and what broke it (empty when it held)."""

    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _check(name: str, problem: Optional[str]) -> Check:
    return Check(name, problem is None, problem or "")


def _first(problems: Iterable[str]) -> Optional[str]:
    return next(iter(problems), None)


# ----------------------------------------------------------------------
# At the horizon (every workload)
# ----------------------------------------------------------------------
def horizon_checks(system: "System") -> list[Check]:
    """Bookkeeping identities over every interval of the timed run."""
    metrics = system.metrics
    records = list(metrics.intervals) + [metrics.current_interval]
    warmup = system.config.runtime.warmup_intervals

    # Normal transactions balance exactly.  Repartition transactions do
    # not (piggybacking withdraws queued ones), so they are reported as
    # the ``core.rep_txn_withdrawn`` counter instead of asserted.
    submitted = sum(r.normal_submitted for r in records)
    finished = sum(r.normal_committed + r.normal_aborted for r in records)
    queued = sum(1 for txn in system.tm.queue.waiting() if txn.is_normal)
    running = system.tm.in_flight - rep_txns_running(system)
    balance = None
    if submitted != finished + queued + running:
        balance = (
            f"normal submitted {submitted} != finished {finished} "
            f"+ queued {queued} + in flight {running}"
        )

    causes = _first(
        f"interval {r.index}: aborted {r.aborted} != by cause "
        f"{sum(r.aborted_by_cause.values())}"
        for r in records
        if r.aborted != sum(r.aborted_by_cause.values())
    )
    idle = _first(
        f"interval {r.index} committed nothing"
        for r in metrics.intervals[warmup:]
        if r.committed <= 0
    )
    return [
        _check("balance.normal_txns", balance),
        _check("balance.abort_causes", causes),
        _check("progress.every_measured_interval_commits", idle),
    ]


def rep_txns_running(system: "System") -> int:
    """Repartition transactions executing right now."""
    session = system.repartitioner.session
    if session is None:
        return 0
    return sum(
        1 for txn in session.rep_txns if txn.status is TxnStatus.RUNNING
    )


def placement_in_flight_checks(system: "System") -> list[Check]:
    """Mid-repartitioning: every mapped replica is really stored."""
    epoch = system.store.current_epoch
    cluster = system.cluster
    stores = {node.partition_id: node.store for node in cluster.nodes}
    missing = _first(
        f"key {key}: map names partition {pid}, its store lacks the key"
        for key in epoch.keys()
        for pid in epoch.replicas_of(key)
        if key not in stores[pid]
    )
    return [_check("placement.mapped_replicas_are_stored", missing)]


# ----------------------------------------------------------------------
# After draining (workloads that complete their repartitioning)
# ----------------------------------------------------------------------
def _last_scheduled_event_s(system: "System") -> float:
    config = system.config
    times = [0.0]
    for schedule in (config.elasticity, config.faults):
        if schedule is not None:
            times.extend(event.at_s for event in schedule.events)
    return max(times)


def _quiet(system: "System") -> bool:
    session = system.repartitioner.session
    controller = system.elasticity_controller
    return (
        system.tm.in_flight == 0
        and len(system.tm.queue) == 0
        and (session is None or session.is_complete)
        and (controller is None or controller.quiescent)
        and not any(node.is_down for node in system.cluster.nodes)
    )


def quiesce(system: "System") -> Check:
    """Continue the run (arrivals have stopped) until nothing moves.

    Quiet must hold at two consecutive interval boundaries so a retry
    still sleeping in its back-off is not mistaken for silence.
    """
    env = system.env
    interval_s = system.config.runtime.interval_s
    last_event_s = _last_scheduled_event_s(system)
    quiet_streak = 0
    for _ in range(MAX_QUIESCE_INTERVALS):
        if _quiet(system) and env.now > last_event_s:
            quiet_streak += 1
            if quiet_streak == 2:
                return _check("quiesce.reached", None)
        else:
            quiet_streak = 0
        env.run(until=env.now + interval_s)
    return _check(
        "quiesce.reached",
        f"still busy at t={env.now:.0f}s: in flight {system.tm.in_flight}, "
        f"queued {len(system.tm.queue)}",
    )


def final_checks(system: "System") -> list[Check]:
    """Placement, RepRate and membership once the system has drained."""
    epoch = system.store.current_epoch
    cluster = system.cluster
    holders: dict[int, set[int]] = {}
    for node in cluster.nodes:
        for key in node.store.keys():
            holders.setdefault(key, set()).add(node.partition_id)

    mismatch = _first(
        f"key {key}: map {sorted(epoch.replicas_of(key))} != "
        f"stores {sorted(holders.get(key, ()))}"
        for key in epoch.keys()
        if set(epoch.replicas_of(key)) != holders.get(key)
    )
    if mismatch is None:
        mismatch = _first(
            f"key {key}: stored on {sorted(held)} but not in the map"
            for key, held in holders.items()
            if key not in epoch
        )
    stored = sum(len(node.store) for node in cluster.nodes)
    mapped = sum(epoch.partition_sizes().values())
    sizes = None
    if stored != mapped:
        sizes = f"stores hold {stored} tuples, map has {mapped} replicas"

    metrics = system.metrics
    rep_rate = None
    if metrics.rep_ops_applied != metrics.rep_ops_total:
        rep_rate = (
            f"final RepRate {metrics.rep_ops_applied}/{metrics.rep_ops_total}"
        )
    checks = [
        _check("placement.map_equals_stores", mismatch),
        _check("placement.sizes_agree", sizes),
        _check("rep_rate.final_is_one", rep_rate),
    ]
    if system.config.elasticity is not None:
        checks.extend(_membership_checks(system))
    return checks


def _membership_checks(system: "System") -> list[Check]:
    """The schedule's end state: N active again, all downtime counted.

    (Zero migration backlog is ``rep_rate.final_is_one`` above: the
    backlog is ``rep_ops_total - rep_ops_applied``.)
    """
    config = system.config
    assert config.elasticity is not None
    expected_active = config.cluster.node_count
    for event in config.elasticity.events:
        expected_active += event.value if event.action == "add" else -1
    census = system.cluster.state_counts()
    membership = None
    if (
        census.get(NodeState.ACTIVE.value, 0) != expected_active
        or census.get(NodeState.DRAINING.value, 0) != 0
        or census.get(NodeState.JOINING.value, 0) != 0
    ):
        membership = f"expected {expected_active} active, census {census}"

    expected_down = 0.0
    if config.faults is not None:
        expected_down = sum(
            event.at_s * (1 if event.action == "restart" else -1)
            for event in config.faults.events
        )
    metrics = system.metrics
    records = list(metrics.intervals) + [metrics.current_interval]
    degraded_s = sum(r.degraded_s for r in records)
    degraded = None
    if abs(degraded_s - expected_down) > 1e-6:
        degraded = f"degraded {degraded_s}s, schedule says {expected_down}s"
    return [
        _check("membership.back_to_n_active", membership),
        _check("faults.degraded_s_matches_schedule", degraded),
    ]


# ----------------------------------------------------------------------
# Across executions (run by the parent)
# ----------------------------------------------------------------------
def digest_checks(
    digests: list[str], traced_digest: Optional[str] = None
) -> list[Check]:
    """Same seed, same per-interval series: untraced and traced."""
    differing = _first(
        f"execution {i} digest {d[:12]} != execution 0 {digests[0][:12]}"
        for i, d in enumerate(digests)
        if d != digests[0]
    )
    checks = [_check("determinism.executions_identical", differing)]
    if traced_digest is not None:
        traced = None
        if traced_digest != digests[0]:
            traced = (
                f"traced digest {traced_digest[:12]} != "
                f"untraced {digests[0][:12]}"
            )
        checks.append(_check("determinism.traced_equals_untraced", traced))
    return checks
