"""Tests for the event primitives of the simulation kernel."""

import weakref

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.ok
        assert not event.failed

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self, env):
        event = env.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.failed
        assert event.value is error

    def test_double_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_after_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError())

    def test_fail_requires_exception_instance(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_unhandled_failure_escalates(self, env):
        event = env.event()
        event.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            env.run()

    def test_defused_failure_does_not_escalate(self, env):
        event = env.event()
        event.fail(ValueError())
        event.defused = True
        env.run()  # no exception


class TestTimeout:
    def test_fires_after_delay(self, env):
        fired = []

        def proc():
            yield env.timeout(5.5)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [5.5]

    def test_zero_delay_fires_now(self, env):
        fired = []

        def proc():
            yield env.timeout(0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [0.0]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_carries_value(self, env):
        got = []

        def proc():
            value = yield env.timeout(1, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_cannot_be_succeeded_manually(self, env):
        timeout = env.timeout(1)
        with pytest.raises(RuntimeError):
            timeout.succeed()


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def child():
            yield env.timeout(1)
            return "done"

        results = []

        def parent():
            value = yield env.process(child())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == ["done"]

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1)
            raise RuntimeError("child failed")

        caught = []

        def parent():
            try:
                yield env.process(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(parent())
        env.run()
        assert caught == ["child failed"]

    def test_uncaught_child_exception_escalates(self, env):
        def child():
            yield env.timeout(1)
            raise RuntimeError("unwatched")

        env.process(child())
        with pytest.raises(RuntimeError, match="unwatched"):
            env.run()

    def test_yielding_non_event_fails_process(self, env):
        def bad():
            yield "not an event"

        process = env.process(bad())
        with pytest.raises(TypeError):
            env.run()
        assert process.failed

    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_is_alive_until_finished(self, env):
        def proc():
            yield env.timeout(5)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def proc():
            yield env.timeout(1)
            times.append(env.now)
            yield env.timeout(2)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.0]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        out = []

        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                out.append((env.now, interrupt.cause))

        target = env.process(sleeper())

        def killer():
            yield env.timeout(3)
            target.interrupt("stop now")

        env.process(killer())
        env.run()
        assert out == [(3.0, "stop now")]

    def test_interrupted_process_can_continue(self, env):
        out = []

        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            out.append(env.now)

        target = env.process(sleeper())

        def killer():
            yield env.timeout(2)
            target.interrupt()

        env.process(killer())
        env.run()
        assert out == [3.0]

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_cause_none_by_default(self):
        interrupt = Interrupt()
        assert interrupt.cause is None

    def test_interrupt_before_first_resume(self, env):
        """Regression: interrupting a just-created process must not let
        its still-pending kick-off (or a later wait target) re-trigger
        the finished process event."""
        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt:
                return "interrupted"

        target = env.process(sleeper())
        target.interrupt("early")   # before env.run: process never resumed
        env.run(until=200)          # the stale wake-ups fire harmlessly
        assert target.ok

    def test_interrupt_mid_wait_detaches_stale_timeout(self, env):
        out = []

        def sleeper():
            try:
                yield env.timeout(10)
            except Interrupt:
                out.append(env.now)

        target = env.process(sleeper())

        def killer():
            yield env.timeout(2)
            target.interrupt()

        env.process(killer())
        env.run(until=50)           # t=10 timeout still fires; must be inert
        assert out == [2.0]

    @staticmethod
    def _park_on_triggered_then_interrupt(env, target_event, log):
        """A sleeper that yields the already-triggered ``target_event``
        at t=1 and a killer that interrupts it at the same instant,
        before the sleeper's same-instant wake-up is served."""

        def sleeper():
            yield env.timeout(1)
            for lap in range(2):
                try:
                    got = yield target_event
                    log.append((env.now, "resumed", lap, got))
                except Interrupt as interrupt:
                    log.append((env.now, "interrupted", lap, interrupt.cause))
                except KeyError as error:
                    log.append((env.now, "thrown", lap, error.args[0]))
            yield env.timeout(1)
            log.append((env.now, "done"))

        target = env.process(sleeper())

        def killer():
            # Scheduled after the sleeper's timeout for the same instant:
            # runs right after the sleeper parked, ahead of its wake-up.
            yield env.timeout(1)
            target.interrupt("now")

        env.process(killer())
        return target

    def test_interrupt_while_parked_on_triggered_event(self, env):
        """The stale wake-up is dropped, and a second wait on the *same*
        triggered event is a wait of its own: resumed exactly once."""
        done = env.event()
        done.succeed("early")
        log = []
        target = self._park_on_triggered_then_interrupt(env, done, log)
        env.run()
        assert log == [
            (1.0, "interrupted", 0, "now"),
            (1.0, "resumed", 1, "early"),
            (2.0, "done"),
        ]
        assert target.ok

    def test_interrupt_while_parked_on_failed_triggered_event(self, env):
        """A failed pre-triggered target is thrown into the waiter — on
        the wait the interrupt did not cut short."""
        broken = env.event()
        broken.fail(KeyError("broken"))
        broken.defused = True  # its own queue entry pops before any waiter
        log = []
        self._park_on_triggered_then_interrupt(env, broken, log)
        env.run()
        assert log == [
            (1.0, "interrupted", 0, "now"),
            (1.0, "thrown", 1, "broken"),
            (2.0, "done"),
        ]

    @pytest.mark.parametrize("reparks", [False, True])
    def test_second_interrupt_ends_wait_on_triggered_event(self, env, reparks):
        """Two interrupts queued in one instant: the process parks on a
        triggered event while handling the first, the second lands in
        that wait and ends it.  The wake-up queued for it is stale: it
        must neither resume the process out of a sleep that follows, nor
        stand in for the wake-up of a *second* wait on the same event,
        which has its own, later place in the queue.  (The proxy events
        this replaced resumed the process twice here.)"""
        done = env.event()
        done.succeed("early")
        log = []

        def sleeper():
            for lap in range(3):
                parks = lap == 1 or (lap == 2 and reparks)
                try:
                    got = yield (done if parks else env.timeout(10))
                    log.append((env.now, "resumed", lap, got))
                except Interrupt as interrupt:
                    log.append((env.now, "interrupted", lap, interrupt.cause))

        target = env.process(sleeper())

        def mark_later(_event):
            marker = env.event()
            marker.callbacks.append(lambda _e: log.append((env.now, "marker")))
            marker.succeed()

        def killer():
            yield env.timeout(1)
            target.interrupt("first")
            # Runs between the two throws and queues the marker: behind
            # the first wait's wake-up, ahead of the second's.
            relay = env.event()
            relay.callbacks.append(mark_later)
            relay.succeed()
            target.interrupt("second")

        env.process(killer())
        env.run()
        assert log == [
            (1.0, "interrupted", 0, "first"),
            (1.0, "interrupted", 1, "second"),
            (1.0, "marker"),
            (1.0, "resumed", 2, "early") if reparks else (11.0, "resumed", 2, None),
        ]

    def test_failed_triggered_target_is_defused_by_its_waiter(self, env):
        """Yielding an event that failed earlier delivers the exception
        and marks it handled, like a wait that began before the failure."""
        broken = env.event()
        caught = []

        def first_waiter():
            try:
                yield broken
            except KeyError as error:
                caught.append((env.now, "first", error.args[0]))

        def failer():
            yield env.timeout(1)
            broken.fail(KeyError("broken"))

        def late_waiter():
            yield env.timeout(2)
            assert broken.failed
            broken.defused = False  # the late waiter must handle it anew
            try:
                yield broken
            except KeyError as error:
                caught.append((env.now, "late", error.args[0]))

        env.process(first_waiter())
        env.process(failer())
        env.process(late_waiter())
        env.run()
        assert caught == [(1.0, "first", "broken"), (2.0, "late", "broken")]
        assert broken.defused


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        def worker(delay, name):
            yield env.timeout(delay)
            return name

        out = []

        def waiter():
            p1 = env.process(worker(2, "a"))
            p2 = env.process(worker(5, "b"))
            results = yield env.all_of([p1, p2])
            out.append((env.now, sorted(results.values())))

        env.process(waiter())
        env.run()
        assert out == [(5.0, ["a", "b"])]

    def test_any_of_fires_on_first(self, env):
        out = []

        def waiter():
            t1 = env.timeout(2, value="fast")
            t2 = env.timeout(9, value="slow")
            results = yield env.any_of([t1, t2])
            out.append((env.now, list(results.values())))

        env.process(waiter())
        env.run(until=20)
        assert out == [(2.0, ["fast"])]

    def test_empty_all_of_succeeds_immediately(self, env):
        condition = env.all_of([])
        assert condition.triggered

    def test_child_failure_fails_condition(self, env):
        caught = []

        def failer():
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter():
            try:
                yield env.all_of([env.process(failer()), env.timeout(10)])
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter())
        env.run()
        assert caught == ["inner"]

    def test_late_child_failure_is_defused(self, env):
        """A child failing after the condition triggered must not crash."""
        lock_event = env.event()

        def waiter():
            yield env.any_of([lock_event, env.timeout(1)])

        def late_failer():
            yield env.timeout(5)
            lock_event.fail(RuntimeError("late"))

        env.process(waiter())
        env.process(late_failer())
        env.run()  # should not raise

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.event(), other.event()])

    def test_any_of_with_already_triggered_child(self, env):
        done = env.event()
        done.succeed("early")
        condition = env.any_of([done, env.timeout(100)])
        assert condition.triggered
        assert list(condition.value.values()) == ["early"]

    def test_child_succeeding_after_the_condition_is_a_no_op(self, env):
        first, late = env.event(), env.event()
        condition = env.any_of([first, late])
        first.succeed("first")
        env.run()
        late.succeed("late")
        env.run()
        assert condition.ok and condition.value == {first: "first"}

    def test_pending_child_after_a_triggered_one_stays_attached(self, env):
        """The condition triggers while its children are still being
        attached; the ones after that are attached all the same."""
        done = env.event()
        done.succeed("early")
        pending = env.event()
        condition = env.any_of([done, pending])
        assert condition.triggered
        pending.fail(RuntimeError("late"))
        env.run()  # defused by the condition: does not escalate
        assert pending.defused and condition.value == {done: "early"}

    def test_all_of_counts_a_triggered_child_once(self, env):
        done = env.event()
        done.succeed("early")
        pending = env.event()
        condition = env.all_of([done, pending])
        assert not condition.triggered
        pending.succeed("late")
        env.run()
        assert condition.value == {done: "early", pending: "late"}


class _WatchedAnyOf(AnyOf):
    """Not slotted, so it can be weakly referenced."""


class _WatchedAllOf(AllOf):
    """Not slotted, so it can be weakly referenced."""


class TestConditionLifetime:
    """A triggered condition lets go of its children: with the collector
    off, it and they are gone once the process that waited has finished —
    the child that never fires does not keep them in a cycle."""

    @pytest.mark.parametrize("watched", [_WatchedAnyOf, _WatchedAllOf])
    @pytest.mark.parametrize("fails", [False, True])
    def test_reclaimed_by_refcount_once_the_waiter_finished(
        self, env, collector_off, watched, fails
    ):
        conditions = []
        doomed = []
        outcome = []

        def failer():
            # Fails the child without raising here: an exception raised
            # in a process drags this kernel frame along in its traceback.
            yield env.timeout(1)
            doomed.pop().fail(ValueError("child failed"))

        def make():
            # Nothing but the condition refers to the children, as with
            # the work server's kill event and the lock-wait timeout.
            if fails:
                doomed.append(env.event())
                env.process(failer())
                children = [doomed[0], env.event()]
            elif watched is _WatchedAllOf:
                children = [env.timeout(1), env.timeout(2)]  # all must fire
            else:
                children = [env.timeout(1), env.event()]
            condition = watched(env, children)
            conditions.append(weakref.ref(condition))
            return condition

        def waiter():
            # No local holds the condition: a failure's traceback keeps
            # this frame, and the frame would keep the condition.
            try:
                yield make()
                outcome.append("ok")
            except ValueError:
                outcome.append("failed")

        env.process(waiter())
        env.run()
        assert outcome == ["failed" if fails else "ok"]
        assert [ref() for ref in conditions] == [None]


class TestSlots:
    """The kernel classes are __slots__-only (no per-instance __dict__)."""

    def test_kernel_events_have_no_dict(self, env):
        def proc():
            yield env.timeout(1)

        for instance in (
            env.event(),
            env.timeout(3),
            env.process(proc()),
            env.all_of([env.timeout(1)]),
            env.any_of([env.timeout(1)]),
        ):
            assert not hasattr(instance, "__dict__")
        env.run()

    def test_subclasses_may_still_add_attributes(self, env):
        class Tagged(Event):
            pass

        tagged = Tagged(env)
        tagged.tag = "ok"
        assert tagged.tag == "ok"

    def test_timeout_flag_replaces_isinstance(self, env):
        assert env.timeout(1)._is_timeout
        assert not env.event()._is_timeout
