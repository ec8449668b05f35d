"""Tests for the Repartitioner coordinator."""

import ast
import gc
from pathlib import Path

import pytest

from repro.core.repartitioner import collector_paused
from repro.core.session import RepState
from repro.types import Priority


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPaused:
    """The one scoped pause every plan source builds its plan under."""

    def test_paused_inside_and_restored_after(self):
        gc.enable()
        settings = gc.get_threshold(), gc.get_freeze_count()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        assert (gc.get_threshold(), gc.get_freeze_count()) == settings

    def test_re_entrant(self):
        gc.enable()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the outer pause still holds
        assert gc.isenabled()

    def test_a_collector_found_disabled_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restored_when_the_block_raises(self):
        gc.enable()
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("plan failed")
        assert gc.isenabled()

    def test_nothing_else_under_src_touches_the_collector(self):
        """No second pause, no ``freeze``, no threshold tuning: the
        module that defines the helper is the only one importing ``gc``."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        importers = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                if "gc" in names:
                    importers.add(path.relative_to(src).as_posix())
        assert importers == {"core/repartitioner.py"}


class TestRankPlan:
    def test_rank_plan_diffs_live_map(self, harness):
        specs = harness.repartitioner.rank_plan(
            harness.plan, harness.profile
        )
        assert len(specs) == len(harness.profile.types)
        densities = [s.benefit_density for s in specs]
        assert densities == sorted(densities, reverse=True)

    def test_identity_plan_yields_nothing(self, harness):
        from repro.partitioning import plan_from_map

        specs = harness.repartitioner.rank_plan(
            plan_from_map(harness.stack.pmap), harness.profile
        )
        assert specs == []


class TestDeploy:
    """``submit`` with the harness's ApplyAll-scheduled repartitioner."""

    def test_deploy_wires_scheduler_hooks(self, harness):
        repartitioner = harness.repartitioner
        scheduler = repartitioner.scheduler
        metrics = harness.stack.metrics
        # Nothing is wired before the first submit: the scheduler's
        # interval hook must come after hooks registered in between.
        assert repartitioner.session is None
        assert harness.stack.tm.scheduler is not scheduler
        assert scheduler.on_interval not in metrics.interval_observers
        repartitioner.submit(harness.specs)
        assert harness.stack.tm.scheduler is scheduler
        assert metrics.interval_observers.count(scheduler.on_interval) == 1
        assert scheduler.session is repartitioner.session

    def test_deploy_plan_end_to_end(self, harness):
        repartitioner = harness.repartitioner
        repartitioner.submit(
            repartitioner.rank_plan(harness.plan, harness.profile)
        )
        harness.stack.env.run(until=2000)
        assert repartitioner.session.is_complete
        for ttype in harness.profile.types:
            homes = {harness.stack.pmap.primary_of(k) for k in ttype.keys}
            assert len(homes) == 1

    def test_submit_returns_the_new_transactions_in_spec_order(self, harness):
        txns = harness.repartitioner.submit(harness.specs)
        assert [t.rep_ops for t in txns] == [s.ops for s in harness.specs]
        ids = [t.txn_id for t in txns]
        assert ids == sorted(ids)
        assert txns == harness.repartitioner.session.rep_txns

    def test_second_submit_joins_the_running_session(self, harness):
        repartitioner = harness.repartitioner
        first = repartitioner.submit(harness.specs[:2])
        session = repartitioner.session
        second = repartitioner.submit(harness.specs[2:])
        metrics = harness.stack.metrics
        assert repartitioner.session is session
        assert session.rep_txns == first + second
        assert metrics.interval_observers.count(
            repartitioner.scheduler.on_interval
        ) == 1
        # The scheduler admitted the newcomers like the first batch.
        for txn in second:
            assert session.state_of(txn.txn_id) is RepState.QUEUED
            assert txn.priority is Priority.HIGH
        assert metrics.rep_ops_total == sum(
            len(s.ops) for s in harness.specs
        )

    def test_new_session_allowed_after_completion(self, harness):
        """Work submitted after completion re-opens the one session."""
        repartitioner = harness.repartitioner
        repartitioner.submit(harness.specs[:2])
        harness.stack.env.run(until=2000)
        session = repartitioner.session
        assert session.is_complete
        first_done = session.completed_at
        assert repartitioner.submit([]) == []
        assert session.completed_at == first_done
        repartitioner.submit(harness.specs[2:])
        assert repartitioner.session is session
        assert not session.is_complete and session.completed_at is None
        harness.stack.env.run(until=4000)
        assert session.is_complete
        assert session.completed_at > first_done
