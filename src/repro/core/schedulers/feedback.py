"""The Feedback scheduler (paper §3.3): PID-controlled promotion.

On top of the AfterAll baseline (everything queued at LOW priority),
each interval the scheduler promotes some repartition transactions to
NORMAL priority — *high-priority repartition transactions* in the
paper's terms — so they compete fairly with the normal workload and
deploy faster.

How many to promote is decided by a PID controller whose process
variable is the measured per-interval ratio of high-priority repartition
cost to normal-transaction cost.  Note on the setpoint scale: the
paper's Table 1 lists SP values slightly above 1 (1.015–1.25), which
matches measuring the ratio as ``(normal + repartition) / normal``; we
adopt that convention, so SP = 1.05 budgets repartition work at 5% of
the normal load.  The controller runs in velocity form (its output
adjusts the previously actuated ratio), so the paper's pure-P setting
(Kp = 1, Ki = Kd = 0) converges on PV = SP instead of oscillating.

A hard cap bounds promotions per interval — the paper's conservative
guard against instability while the controller settles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...control.pid import PIDController
from ...errors import ConfigError
from ...metrics.collectors import IntervalRecord
from ...txn.transaction import Transaction
from ...types import Priority
from ..session import RepState
from .base import Scheduler


@dataclass(frozen=True)
class FeedbackConfig:
    """Controller and promotion-budget parameters."""

    #: Table-1-style setpoint: target (normal + rep) / normal cost ratio.
    setpoint: float = 1.05
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    #: Hard cap on promotions per interval (stability guard, §3.3).
    max_promotions_per_interval: int = 20
    #: Clamp on the actuated repartition-cost share (rep/normal).
    max_ratio: float = 2.0
    #: Fallback per-interval normal cost used when an interval commits
    #: nothing (saturation); typically arrival_rate × C × interval.
    normal_cost_hint: float = 1.0
    #: Measure PV including piggybacked repartition cost (Hybrid mode).
    count_piggybacked_in_pv: bool = False

    def __post_init__(self) -> None:
        if self.setpoint < 1.0:
            raise ConfigError(
                f"setpoint is on the (normal+rep)/normal scale, so it "
                f"must be >= 1: {self.setpoint}"
            )
        if self.max_promotions_per_interval < 0:
            raise ConfigError("promotion cap cannot be negative")
        if self.max_ratio <= 0:
            raise ConfigError("max_ratio must be positive")
        if self.normal_cost_hint <= 0:
            raise ConfigError("normal_cost_hint must be positive")


class FeedbackScheduler(Scheduler):
    """AfterAll baseline + PID-driven promotion to normal priority."""

    name = "Feedback"

    def __init__(self, config: FeedbackConfig | None = None) -> None:
        super().__init__()
        self.config = config or FeedbackConfig()
        self.pid = PIDController(
            kp=self.config.kp,
            ki=self.config.ki,
            kd=self.config.kd,
            setpoint=self.config.setpoint,
        )
        #: Currently actuated repartition share of normal cost.
        self.ratio = self.config.setpoint - 1.0
        self.promotions = 0
        self._last_normal_cost = 0.0

    def admit(self, new_txns: list[Transaction]) -> None:
        """Everything joins the LOW baseline; the PID promotes from it."""
        assert self.session is not None
        for rep_txn in new_txns:
            self.session.submit(rep_txn, Priority.LOW)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def on_interval(self, record: IntervalRecord) -> None:
        session = self.session
        if session is None or session.is_complete:
            return

        if self.config.count_piggybacked_in_pv:
            rep_cost = record.rep_cost_high + record.rep_cost_piggyback
        else:
            rep_cost = record.rep_cost_high
        normal_cost = record.normal_cost
        if normal_cost > 0:
            self._last_normal_cost = normal_cost
        denominator = (
            normal_cost
            or self._last_normal_cost
            or self.config.normal_cost_hint
        )
        pv = 1.0 + rep_cost / denominator

        adjustment = self.pid.update(pv, dt=1.0)
        self.ratio = min(
            self.config.max_ratio, max(0.0, self.ratio + adjustment)
        )

        budget_units = self.ratio * denominator
        mean_cost = session.mean_rep_txn_cost()
        if mean_cost <= 0:
            return
        quota = int(budget_units / mean_cost)
        quota = min(quota, self.config.max_promotions_per_interval)
        if quota > 0:
            self._promote(quota)

    def _promote(self, quota: int) -> None:
        """Raise the next ``quota`` ranked LOW transactions to NORMAL."""
        session = self.session
        assert session is not None
        promoted = 0
        for rep_txn in session.rep_txns:
            if promoted >= quota:
                break
            if self._promotable(rep_txn):
                if session.promote(rep_txn, Priority.NORMAL):
                    promoted += 1
                    self.promotions += 1

    def _promotable(self, rep_txn: Transaction) -> bool:
        session = self.session
        assert session is not None
        return (
            session.state_of(rep_txn.txn_id) is RepState.QUEUED
            and rep_txn.priority is Priority.LOW
            and rep_txn.txn_id in session.tm.queue
        )
