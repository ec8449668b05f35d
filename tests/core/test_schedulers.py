"""Tests for the five scheduling strategies."""

import pytest

from repro.core import (
    AfterAllScheduler,
    ApplyAllScheduler,
    FeedbackConfig,
    FeedbackScheduler,
    HybridScheduler,
    PiggybackConfig,
    PiggybackScheduler,
)
from repro.core.session import RepState
from repro.errors import ConfigError
from repro.metrics.collectors import IntervalRecord
from repro.types import Priority

from .conftest import build_harness


def bind(scheduler, harness):
    """Wire ``scheduler`` to a session and let it admit the ranked plan."""
    session = harness.session()
    scheduler.bind(session)
    harness.stack.tm.scheduler = scheduler
    scheduler.admit(session.rep_txns)
    return session


def record(index=0, normal_cost=100.0, rep_high=0.0, piggy=0.0):
    rec = IntervalRecord(index=index, start=0.0, end=20.0)
    rec.normal_cost = normal_cost
    rec.rep_cost_high = rep_high
    rec.rep_cost_piggyback = piggy
    return rec


class TestApplyAll:
    def test_submits_everything_at_high_priority(self, harness):
        scheduler = ApplyAllScheduler()
        session = bind(scheduler, harness)
        for rep in session.rep_txns:
            assert session.state_of(rep.txn_id) is RepState.QUEUED
            assert rep.priority is Priority.HIGH

    def test_deploys_fully(self, harness):
        scheduler = ApplyAllScheduler()
        session = bind(scheduler, harness)
        harness.stack.env.run(until=1000)
        assert session.is_complete
        for ttype in harness.profile.types:
            partitions = {
                harness.stack.pmap.primary_of(k) for k in ttype.keys
            }
            assert len(partitions) == 1


class TestAfterAll:
    def test_submits_everything_at_low_priority(self, harness):
        scheduler = AfterAllScheduler()
        session = bind(scheduler, harness)
        for rep in session.rep_txns:
            assert rep.priority is Priority.LOW

    def test_completes_when_idle(self, harness):
        scheduler = AfterAllScheduler()
        session = bind(scheduler, harness)
        harness.stack.env.run(until=1000)
        assert session.is_complete


class TestFeedback:
    def test_begin_uses_low_priority_baseline(self, harness):
        scheduler = FeedbackScheduler(FeedbackConfig())
        session = bind(scheduler, harness)
        for rep in session.rep_txns:
            assert rep.priority is Priority.LOW

    def test_promotions_follow_budget(self, harness):
        config = FeedbackConfig(setpoint=1.5, max_promotions_per_interval=2)
        scheduler = FeedbackScheduler(config)
        session = bind(scheduler, harness)
        # PV starts at 1.0 (no rep cost): error = 0.5 -> ratio 0.5+0.5.
        scheduler.on_interval(record(normal_cost=10.0))
        promoted = [
            rep for rep in session.rep_txns
            if rep.priority is Priority.NORMAL
        ]
        assert len(promoted) == 2  # capped
        # Highest-density transactions promoted first.
        assert promoted[0] is session.rep_txns[0]

    def test_promotion_respects_cap(self, harness):
        config = FeedbackConfig(
            setpoint=2.0, max_promotions_per_interval=1
        )
        scheduler = FeedbackScheduler(config)
        session = bind(scheduler, harness)
        scheduler.on_interval(record(normal_cost=1000.0))
        promoted = [
            rep for rep in session.rep_txns
            if rep.priority is Priority.NORMAL
        ]
        assert len(promoted) == 1

    def test_pv_at_setpoint_stops_promotion_growth(self, harness):
        config = FeedbackConfig(setpoint=1.05)
        scheduler = FeedbackScheduler(config)
        bind(scheduler, harness)
        ratio_before = scheduler.ratio
        # Measured PV exactly at the setpoint: no adjustment.
        scheduler.on_interval(
            record(normal_cost=100.0, rep_high=5.0)
        )
        assert scheduler.ratio == pytest.approx(ratio_before)

    def test_overshoot_reduces_ratio(self, harness):
        scheduler = FeedbackScheduler(FeedbackConfig(setpoint=1.05))
        bind(scheduler, harness)
        before = scheduler.ratio
        scheduler.on_interval(record(normal_cost=100.0, rep_high=50.0))
        assert scheduler.ratio < before

    def test_ratio_never_negative(self, harness):
        scheduler = FeedbackScheduler(FeedbackConfig(setpoint=1.01))
        bind(scheduler, harness)
        for _ in range(5):
            scheduler.on_interval(
                record(normal_cost=10.0, rep_high=100.0)
            )
        assert scheduler.ratio == 0.0

    def test_saturated_interval_uses_hint(self, harness):
        config = FeedbackConfig(setpoint=2.0, normal_cost_hint=50.0,
                                max_promotions_per_interval=10)
        scheduler = FeedbackScheduler(config)
        session = bind(scheduler, harness)
        scheduler.on_interval(record(normal_cost=0.0))
        promoted = [
            rep for rep in session.rep_txns
            if rep.priority is Priority.NORMAL
        ]
        assert promoted  # the hint kept the controller alive

    def test_setpoint_scale_validated(self):
        with pytest.raises(ConfigError):
            FeedbackConfig(setpoint=0.5)

    def test_no_promotion_after_completion(self, harness):
        scheduler = FeedbackScheduler(FeedbackConfig(setpoint=2.0))
        session = bind(scheduler, harness)
        harness.stack.env.run(until=2000)
        assert session.is_complete
        scheduler.on_interval(record())  # must be a no-op, not crash


class TestPiggyback:
    def test_begin_queues_nothing(self, harness):
        scheduler = PiggybackScheduler()
        session = bind(scheduler, harness)
        assert len(harness.stack.tm.queue) == 0
        assert all(
            session.state_of(t.txn_id) is RepState.PENDING
            for t in session.rep_txns
        )

    def test_benefiting_carrier_gets_ops(self, harness):
        scheduler = PiggybackScheduler()
        session = bind(scheduler, harness)
        ttype = harness.profile.types[0]
        carrier = harness.stack.tm.create_normal(
            [harness.stack.write(k) for k in ttype.keys],
            type_id=ttype.type_id,
        )
        harness.stack.tm.submit(carrier)
        assert carrier.is_piggybacked
        assert scheduler.piggybacks == 1
        rep_id = carrier.carrying_rep_txn
        harness.stack.env.run(until=1000)
        assert carrier.committed
        assert session.state_of(rep_id) is RepState.DONE

    def test_unrelated_carrier_untouched(self, harness):
        scheduler = PiggybackScheduler()
        bind(scheduler, harness)
        carrier = harness.stack.tm.create_normal(
            [harness.stack.read(0)], type_id=None
        )
        harness.stack.tm.submit(carrier)
        assert not carrier.is_piggybacked

    def test_oversized_rep_txn_not_attached(self, harness):
        scheduler = PiggybackScheduler(
            PiggybackConfig(max_ops_per_carrier=1)
        )
        bind(scheduler, harness)
        ttype = harness.profile.types[0]
        carrier = harness.stack.tm.create_normal(
            [harness.stack.read(k) for k in ttype.keys],
            type_id=ttype.type_id,
        )
        harness.stack.tm.submit(carrier)
        # Each repartition transaction carries 2 ops > cap of 1.
        assert not carrier.is_piggybacked

    def test_failed_carrier_is_stripped_and_not_reburdened(self):
        harness = build_harness(rep_op_failure_probability=1.0,
                                max_attempts=3)
        scheduler = PiggybackScheduler()
        session = bind(scheduler, harness)
        ttype = harness.profile.types[0]
        carrier = harness.stack.tm.create_normal(
            [harness.stack.write(k) for k in ttype.keys],
            type_id=ttype.type_id,
        )
        rep_txn = session.trep[ttype.type_id]
        harness.stack.tm.submit(carrier)
        assert carrier.is_piggybacked
        harness.stack.env.run(until=1000)
        # Carrier failed once with ops, was stripped, resubmitted clean,
        # and committed; the repartition transaction is pending again.
        assert carrier.committed
        assert not carrier.is_piggybacked
        assert scheduler.carrier_failures == 1
        assert session.state_of(rep_txn.txn_id) is RepState.PENDING


class TestHybrid:
    def test_begin_submits_low_baseline(self, harness):
        scheduler = HybridScheduler()
        session = bind(scheduler, harness)
        for rep in session.rep_txns:
            assert session.state_of(rep.txn_id) is RepState.QUEUED
            assert rep.priority is Priority.LOW

    def test_carrier_claims_from_queue(self, harness):
        scheduler = HybridScheduler()
        session = bind(scheduler, harness)
        ttype = harness.profile.types[0]
        carrier = harness.stack.tm.create_normal(
            [harness.stack.write(k) for k in ttype.keys],
            type_id=ttype.type_id,
        )
        rep_txn = session.trep[ttype.type_id]
        harness.stack.tm.submit(carrier)
        assert carrier.is_piggybacked
        assert rep_txn.txn_id not in harness.stack.tm.queue

    def test_pv_counts_piggybacked_cost(self):
        scheduler = HybridScheduler(
            FeedbackConfig(setpoint=1.05)
        )
        assert scheduler.feedback.config.count_piggybacked_in_pv

    def test_failed_carrier_requeues_rep_txn_at_low(self):
        harness = build_harness(rep_op_failure_probability=1.0,
                                max_attempts=2)
        scheduler = HybridScheduler()
        session = bind(scheduler, harness)
        ttype = harness.profile.types[0]
        carrier = harness.stack.tm.create_normal(
            [harness.stack.write(k) for k in ttype.keys],
            type_id=ttype.type_id,
        )
        rep_txn = session.trep[ttype.type_id]
        harness.stack.tm.submit(carrier)
        harness.stack.env.run(until=5)
        # After the carrier failure the rep txn must be back in the queue
        # so the feedback module can promote it later.
        assert session.state_of(rep_txn.txn_id) is RepState.QUEUED

    def test_full_deployment(self, harness):
        scheduler = HybridScheduler(
            FeedbackConfig(setpoint=1.5, normal_cost_hint=10.0)
        )
        session = bind(scheduler, harness)
        harness.stack.metrics.interval_observers.append(
            scheduler.on_interval
        )
        harness.stack.env.run(until=2000)
        assert session.is_complete
