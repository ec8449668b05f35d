"""Tests for the repartition session's state machine."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import RepState
from repro.types import Priority

from ..hypothesis_budget import examples
from .conftest import build_harness


class TestInitialState:
    def test_all_pending_initially(self, harness):
        session = harness.session()
        for rep_txn in session.rep_txns:
            assert session.state_of(rep_txn.txn_id) is RepState.PENDING
        assert session.unfinished_count() == len(session.rep_txns)
        assert not session.is_complete

    def test_trep_maps_types_to_transactions(self, harness):
        session = harness.session()
        assert set(session.trep) == {t.type_id for t in harness.profile.types}

    def test_ops_total_registered_with_metrics(self, harness):
        session = harness.session()
        assert harness.stack.metrics.rep_ops_total == session.ops_total
        assert session.ops_total == sum(
            len(t.rep_ops) for t in session.rep_txns
        )

    def test_rep_txns_in_rank_order(self, harness):
        session = harness.session()
        densities = [t.benefit_density for t in session.rep_txns]
        assert densities == sorted(densities, reverse=True)

    def test_empty_session_completes_immediately(self, harness):
        from repro.core.session import RepartitionSession

        session = RepartitionSession(
            harness.stack.env, harness.stack.tm, harness.stack.metrics
        )
        assert session.add([]) == []
        assert session.is_complete
        assert session.completed_at is None  # nothing ever finished

    def test_first_spec_of_a_type_keeps_the_trep_slot(self, harness):
        """Two specs benefiting one type: the higher-ranked one rides.

        ``ReadReplicationPlanner.build_specs`` emits such lists (one
        spec per tuple, typed by the tuple's first accessing type).
        """
        from repro.core.session import RepartitionSession

        first, second = harness.specs[0], harness.specs[1]
        same_type = dataclasses.replace(second, type_id=first.type_id)
        session = RepartitionSession(
            harness.stack.env, harness.stack.tm, harness.stack.metrics
        )
        session.add([first, same_type])
        assert session.trep[first.type_id] is session.rep_txns[0]
        # A later batch does not take the slot either.
        session.add([same_type])
        assert session.trep[first.type_id] is session.rep_txns[0]
        # Once the holder is done the slot is free, not handed on.
        session.complete(session.rep_txns[0].txn_id)
        assert first.type_id not in session.trep


class TestSubmission:
    def test_submit_moves_to_queued(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.submit(rep, Priority.LOW)
        assert session.state_of(rep.txn_id) is RepState.QUEUED
        assert rep.txn_id in harness.stack.tm.queue

    def test_double_submit_rejected(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.submit(rep, Priority.LOW)
        with pytest.raises(ValueError):
            session.submit(rep, Priority.LOW)

    def test_promote_requeues_at_new_priority(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.submit(rep, Priority.LOW)
        assert session.promote(rep, Priority.NORMAL)
        assert rep.priority is Priority.NORMAL
        assert session.state_of(rep.txn_id) is RepState.QUEUED

    def test_promote_pending_fails(self, harness):
        session = harness.session()
        assert not session.promote(session.rep_txns[0], Priority.NORMAL)


class TestPiggybackClaims:
    def test_claim_pending_transaction(self, harness):
        session = harness.session()
        type_id = session.rep_txns[0].type_id
        claimed = session.claim_for_piggyback(type_id)
        assert claimed is session.rep_txns[0]
        assert session.state_of(claimed.txn_id) is RepState.PIGGYBACKED

    def test_claim_unknown_type_returns_none(self, harness):
        session = harness.session()
        assert session.claim_for_piggyback(999) is None

    def test_claim_queued_transaction_removes_from_queue(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.submit(rep, Priority.LOW)
        claimed = session.claim_for_piggyback(rep.type_id)
        assert claimed is rep
        assert rep.txn_id not in harness.stack.tm.queue

    def test_claim_dispatched_transaction_returns_none(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.submit(rep, Priority.NORMAL)
        harness.stack.env.run(until=0.001)  # dispatcher picks it up
        assert session.claim_for_piggyback(rep.type_id) is None

    def test_release_returns_to_pending(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.claim_for_piggyback(rep.type_id)
        released = session.release_piggyback(rep.txn_id)
        assert released is rep
        assert session.state_of(rep.txn_id) is RepState.PENDING

    def test_release_non_piggybacked_returns_none(self, harness):
        session = harness.session()
        assert session.release_piggyback(session.rep_txns[0].txn_id) is None

    def test_claimed_type_can_be_reclaimed_after_release(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.claim_for_piggyback(rep.type_id)
        session.release_piggyback(rep.txn_id)
        assert session.claim_for_piggyback(rep.type_id) is rep


class TestCompletion:
    def test_complete_removes_from_trep(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.complete(rep.txn_id)
        assert session.state_of(rep.txn_id) is RepState.DONE
        assert rep.type_id not in session.trep

    def test_complete_is_idempotent(self, harness):
        session = harness.session()
        rep = session.rep_txns[0]
        session.complete(rep.txn_id)
        session.complete(rep.txn_id)
        assert session.unfinished_count() == len(session.rep_txns) - 1

    def test_completion_event_fires_when_all_done(self, harness):
        session = harness.session()
        harness.stack.env.run(until=7.0)
        for rep in session.rep_txns:
            assert session.completed_at is None
            session.complete(rep.txn_id)
        assert session.completed_at == 7.0
        assert session.is_complete

    def test_pending_lists_in_rank_order(self, harness):
        session = harness.session()
        session.complete(session.rep_txns[1].txn_id)
        pending = session.pending()
        assert session.rep_txns[1] not in pending
        assert pending == [
            t
            for t in session.rep_txns
            if session.state_of(t.txn_id) is RepState.PENDING
        ]

    def test_mean_rep_txn_cost(self, harness):
        session = harness.session()
        costs = [t.cost for t in session.rep_txns]
        assert session.mean_rep_txn_cost() == pytest.approx(
            sum(costs) / len(costs)
        )


SESSION_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "claim", "release", "complete", "complete", "extend"]
        ),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=60,
)


class TestIncrementalBookkeeping:
    """The O(1) counter and id index against from-scratch recounts."""

    @settings(max_examples=examples(60), deadline=None)
    @given(SESSION_OPS)
    def test_counter_and_completion_track_a_recount(self, ops):
        harness = build_harness()
        session = harness.session()
        for op, pick in ops:
            rep = session.rep_txns[pick % len(session.rep_txns)]
            if op == "submit":
                if session.state_of(rep.txn_id) is RepState.PENDING:
                    session.submit(rep, Priority.LOW)
            elif op == "claim":
                session.claim_for_piggyback(rep.type_id)
            elif op == "release":
                released = session.release_piggyback(rep.txn_id)
                assert released is None or released is rep
            elif op == "complete":
                session.complete(rep.txn_id)
            elif op == "extend":
                session.add(harness.specs[: 1 + pick % 2])
            unfinished = sum(
                session.state_of(t.txn_id) is not RepState.DONE
                for t in session.rep_txns
            )
            assert session.unfinished_count() == unfinished
            assert session.is_complete == (unfinished == 0)
            # The completion time is set exactly while nothing is
            # outstanding, and cleared again by every non-empty add.
            assert (session.completed_at is not None) == (unfinished == 0)
            for txn in session.rep_txns:
                assert session.rep_txn(txn.txn_id) is txn
        assert session.rep_txn(-1) is None
