"""Tests for the environment's clock and scheduling semantics."""

import pytest

from repro.errors import ReproError, SimulationError
from repro.sim import EmptySchedule, Environment


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=42.0)
        assert env.now == 42.0

    def test_run_backwards_rejected(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_schedule_into_past_rejected(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env._schedule_at(5, env.event())

    def test_schedule_into_past_raises_simulation_error(self, env):
        """Regression: past scheduling must surface as SimulationError.

        The old kernel silently heap-inserted into the past from some
        call sites; now every route raises a typed error that is *also*
        a ValueError, so historical ``except ValueError`` guards and the
        library-wide ``except ReproError`` both catch it.
        """
        env.run(until=10)
        with pytest.raises(SimulationError):
            env._schedule_at(9.999, env.event())
        with pytest.raises(ReproError):
            env._schedule_at(0, env.event())
        assert issubclass(SimulationError, ValueError)
        # A rejected schedule must leave no queue entry behind.
        assert env.peek() == float("inf")


class TestTimedOrder:
    """Future entries pop in ``(when, scheduling order)`` order."""

    @pytest.mark.parametrize("distinct_delays", [1, 2, 3, 7, 13])
    def test_fifty_timeouts_fire_by_time_then_scheduling_order(
        self, env, distinct_delays
    ):
        fired = []

        def proc(name, delay):
            yield env.timeout(delay)
            fired.append((env.now, name))

        # 50 processes over a few distinct delays: ties on every instant.
        # One delay makes them all zero-delay timeouts, served from the
        # ready queue; more spread them over the heap.
        delays = [(i * 17) % distinct_delays for i in range(50)]
        for i, delay in enumerate(delays):
            env.process(proc(i, delay))
        env.run()
        assert fired == sorted((float(delay), i) for i, delay in enumerate(delays))

    def test_peek_reports_each_timed_entry_in_turn(self, env):
        env.timeout(3)
        env.timeout(1)
        env.timeout(2)
        seen = []
        while env.peek() != float("inf"):
            seen.append(env.peek())
            env.step()
        assert seen == [1.0, 2.0, 3.0]

    def test_insert_while_draining_interleaves(self, env):
        """An entry scheduled mid-run for before pending ones fires first."""
        fired = []

        def late_scheduler():
            yield env.timeout(1)
            # Scheduled at t=1, while entries for t=5 and t=10 are pending.
            t = env.timeout(1)
            t.callbacks.append(lambda _ev: fired.append(("late", env.now)))

        def marker(delay):
            yield env.timeout(delay)
            fired.append(("marker", env.now))

        env.process(late_scheduler())
        for delay in (5, 10):
            env.process(marker(delay))
        env.run()
        assert fired == [("late", 2.0), ("marker", 5.0), ("marker", 10.0)]


class TestRun:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(3)
            return "result"

        assert env.run(until=env.process(proc())) == "result"
        assert env.now == 3.0

    def test_run_until_failed_event_raises(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("whoops")

        with pytest.raises(KeyError):
            env.run(until=env.process(proc()))

    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        with pytest.raises(RuntimeError, match="ran out of events"):
            env.run(until=never)

    def test_run_until_none_drains_everything(self, env):
        count = []

        def proc(n):
            yield env.timeout(n)
            count.append(n)

        for n in range(5):
            env.process(proc(n))
        env.run()
        assert sorted(count) == [0, 1, 2, 3, 4]

    def test_run_until_time_excludes_later_events(self, env):
        fired = []

        def proc():
            yield env.timeout(10)
            fired.append("late")

        env.process(proc())
        env.run(until=5)
        assert fired == []
        env.run(until=15)
        assert fired == ["late"]


class TestOrdering:
    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []

        def proc(name):
            yield env.timeout(5)
            order.append(name)

        for name in ("first", "second", "third"):
            env.process(proc(name))
        env.run()
        assert order == ["first", "second", "third"]

    def test_determinism_across_runs(self):
        def simulate():
            env = Environment()
            log = []

            def proc(name, delay):
                yield env.timeout(delay)
                log.append((env.now, name))

            for i in range(10):
                env.process(proc(f"p{i}", (i * 7) % 5))
            env.run()
            return log

        assert simulate() == simulate()


class TestStep:
    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_reports_next_event_time(self, env):
        assert env.peek() == float("inf")
        env.timeout(7)
        assert env.peek() == 7.0

    def test_failed_timeout_popped_exactly_once(self, env):
        """Regression: failing a Timeout must not heap it a second time."""
        timeout = env.timeout(5.0)
        fired = []
        timeout.callbacks.append(lambda _ev: fired.append(env.now))
        timeout.fail(RuntimeError("boom"))
        timeout.defused = True
        pops = 0
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
            pops += 1
        assert pops == 1
        assert fired == [5.0]

    def test_failed_timeout_still_escalates_when_undefused(self, env):
        timeout = env.timeout(2.0)
        timeout.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        # The failure was delivered by the single heap entry; nothing is
        # left behind to re-raise on a subsequent run.
        env.run()


class TestRunIntervals:
    def test_advances_exactly_interval_times_count(self, env):
        env.run_intervals(20.0, 5)
        assert env.now == 100.0

    def test_matches_repeated_run_calls(self):
        def simulate(batched):
            env = Environment()
            log = []

            def proc(name, delay):
                yield env.timeout(delay)
                log.append((env.now, name))

            for i in range(10):
                env.process(proc(f"p{i}", (i * 13) % 50))
            if batched:
                env.run_intervals(10.0, 5)
            else:
                for k in range(1, 6):
                    env.run(until=10.0 * k)
            return log, env.now

        assert simulate(True) == simulate(False)

    def test_on_interval_called_at_each_boundary(self, env):
        seen = []

        def proc():
            yield env.timeout(25)

        env.process(proc())
        env.run_intervals(10.0, 3, on_interval=lambda i: seen.append((i, env.now)))
        assert seen == [(0, 10.0), (1, 20.0), (2, 30.0)]

    def test_rejects_bad_arguments(self, env):
        with pytest.raises(ValueError):
            env.run_intervals(0.0, 3)
        with pytest.raises(ValueError):
            env.run_intervals(1.0, -1)


class TestSameInstant:
    """Work scheduled *at* the current instant, between timed entries."""

    @staticmethod
    def _log_at(env, log, delay, tag, then=None):
        """A timeout due after ``delay`` that logs ``tag`` (then calls
        ``then``, still inside the callback)."""

        def fire(_event):
            log.append((env.now, tag))
            if then is not None:
                then()

        env.timeout(delay).callbacks.append(fire)

    @staticmethod
    def _log_now(env, log, tag, then=None):
        """An event succeeded right now whose waiter logs ``tag``."""

        def fire(_event):
            log.append((env.now, tag))
            if then is not None:
                then()

        event = env.event()
        event.callbacks.append(fire)
        event.succeed()

    def test_peek_is_now_while_same_instant_work_is_pending(self, env):
        log = []
        self._log_at(env, log, 5, "a", lambda: self._log_now(env, log, "r"))
        self._log_at(env, log, 7, "later")
        env.step()
        assert (env.now, log) == (5.0, [(5.0, "a")])
        assert env.peek() == 5.0  # "r" is due now, not at 7
        env.step()
        assert log[-1] == (5.0, "r")
        assert env.peek() == 7.0

    def test_step_serves_timed_entry_due_now_before_same_instant_work(
        self, env
    ):
        log = []
        # "a" and "b" were both scheduled at t=0 for t=5; "r" is scheduled
        # at t=5 from inside "a", so it carries the larger sequence number.
        self._log_at(env, log, 5, "a", lambda: self._log_now(env, log, "r"))
        self._log_at(env, log, 5, "b")
        for _ in range(3):
            env.step()
        assert log == [(5.0, "a"), (5.0, "b"), (5.0, "r")]

    def test_run_serves_timed_entries_due_now_before_same_instant_work(
        self, env
    ):
        """Rule 1 inside one ``run()``, at two instants in a row."""
        log = []
        self._log_at(env, log, 5, "a", lambda: self._log_now(env, log, "r"))
        self._log_at(env, log, 5, "b")
        self._log_at(env, log, 6, "c", lambda: self._log_now(env, log, "s"))
        self._log_at(env, log, 6, "d")
        env.run()
        assert log == [
            (5.0, "a"), (5.0, "b"), (5.0, "r"),
            (6.0, "c"), (6.0, "d"), (6.0, "s"),
        ]

    def test_zero_delay_timeout_keeps_its_place_among_same_instant_work(
        self, env
    ):
        log = []

        def burst():
            self._log_now(env, log, "first")
            self._log_at(env, log, 0, "zero-delay")
            self._log_now(env, log, "last")

        self._log_at(env, log, 5, "a", burst)
        env.run()
        assert [tag for _when, tag in log] == [
            "a", "first", "zero-delay", "last",
        ]
        assert {when for when, _tag in log} == {5.0}

    # t=5 holds three timed entries (a, b, c) and five same-instant ones
    # (a's cascade of 3, b's of 2): split after a timed entry, on the
    # timed/ready seam, inside the ready run, and after the last entry.
    @pytest.mark.parametrize("steps_first", [1, 3, 4, 8])
    def test_run_split_inside_an_instant_equals_one_call(self, steps_first):
        def simulate(split):
            env = Environment()
            log = []

            def cascade(depth):
                if depth:
                    self._log_now(
                        env, log, ("r", depth), lambda: cascade(depth - 1)
                    )

            self._log_at(env, log, 5, "a", lambda: cascade(3))
            self._log_at(env, log, 5, "b", lambda: cascade(2))
            self._log_at(env, log, 5, "c")
            self._log_at(env, log, 6, "d", lambda: cascade(1))
            if split:
                for _ in range(steps_first):
                    env.step()
                assert env.now == 5.0
                env.run(until=5)  # finishes the instant, clock stays put
                assert env.now == 5.0
                env.run(until=5)  # nothing left at t=5
                self._log_at(env, log, 0, "boundary")
                env.run(until=5)
                env.run(until=10)
            else:
                env.run(until=5)
                self._log_at(env, log, 0, "boundary")
                env.run(until=10)
            return log, env.now

        whole = simulate(split=False)
        assert simulate(split=True) == whole
        assert len(whole[0]) == 4 + 3 + 2 + 1 + 1

    @pytest.mark.parametrize(
        "drive", ["run", "run_until", "run_intervals", "step"]
    )
    def test_raising_callback_neither_replays_nor_loses_entries(
        self, env, drive
    ):
        def finish():
            if drive == "run":
                env.run()
            elif drive == "run_until":
                env.run(until=10)
            elif drive == "run_intervals":
                env.run_intervals(10.0, 1)
            else:
                while env.peek() != float("inf"):
                    env.step()

        log = []

        def explode():
            raise RuntimeError("callback blew up")

        def burst():
            self._log_now(env, log, "r1", explode)
            self._log_now(env, log, "r2")

        self._log_at(env, log, 5, "a", burst)
        self._log_at(env, log, 5, "b", explode)
        self._log_at(env, log, 5, "c")
        self._log_at(env, log, 6, "d")
        for _ in range(2):  # once from a timed entry, once from same-instant
            with pytest.raises(RuntimeError, match="blew up"):
                finish()
        assert env.now == 5.0
        finish()
        assert log == [
            (5.0, "a"), (5.0, "b"), (5.0, "c"),
            (5.0, "r1"), (5.0, "r2"), (6.0, "d"),
        ]
        assert env.peek() == float("inf")
