"""The discrete-event simulation environment (virtual clock + event loop).

Pending entries live in two structures: ``_ready``, a ``deque`` of
``(event, fn)`` pairs for everything scheduled with ``when == now`` (two
thirds of a standard cell's entries), served first-in-first-out; and
``_timed``, one binary heap of ``(when, seq, event)`` for everything
scheduled with ``when > now``.

Pop order is exactly that of one heap keyed ``(when, seq)`` over every
entry, as the equivalence suite under ``tests/`` checks: such a heap
serves what is scheduled at the instant ``now`` first-in-first-out
(``seq`` rises), so the two agree provided three rules hold:

1. a *timed* entry due at ``now`` was scheduled at an earlier instant — a
   smaller ``seq`` — so it is served **before** any ready entry;
2. *every* ``when == now`` schedule goes to ``_ready``, a zero-delay
   timeout included (the test is ``now + delay == now``), or ties would
   lose their order;
3. ``peek()``, ``step()``, ``_advance()`` and ``run_intervals()`` all see
   the ready queue, and a raising callback leaves both structures
   consistent: the entry that raised is gone, those behind it are served
   by the next call.

A ready entry whose ``event`` is ``None`` is a **bare callback**
(``fn()``): process kick-off, interrupt delivery and the wake-up after
yielding a triggered event need no Event.  Cancellation stays lazy: a
detached waiter's entry stays and pops to an empty-list check.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from math import inf
from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, EventState, Process, Timeout

#: A timed entry ``(when, seq, event)``: ``seq`` is unique, so comparison
#: never reaches the event.  A ready entry ``(event, fn)`` has one of the
#: two set.  Slots are ``Any``: a union would cost an isinstance per pop.
Entry = tuple[float, int, Any]
Ready = tuple[Any, Any]

# Every event pop compares against these states: enum lookups hoisted.
_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED
_FAILED = EventState.FAILED


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Coordinates virtual time and executes scheduled events in order.

    Events due at the same instant run in the order they were scheduled,
    which makes runs fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._seq: count[int] = count()
        self._ready: deque[Ready] = deque()
        self._timed: list[Entry] = []

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that succeeds once every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Event that succeeds once any event in ``events`` has."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling internals (used by the event classes)
    # ------------------------------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        now = self._now
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule into the past ({when} < {now})"
                )
            self._ready.append((event, None))
            return
        heapq.heappush(self._timed, (when, next(self._seq), event))

    def _enqueue_triggered(self, event: Event) -> None:
        """Queue a just-triggered event's callbacks to run at the current time."""
        if event._is_timeout:
            # Timeouts were queued at construction by _schedule_at; a
            # second entry would pop them twice.
            return
        self._ready.append((event, None))

    def _call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the current instant, queued where a fresh event
        succeeded with ``fn`` as its only callback would be."""
        self._ready.append((None, fn))

    def _pop_entry(self) -> Ready:
        """Remove and return the next ``(event, fn)``; the clock moves to it."""
        timed = self._timed
        ready = self._ready
        if ready and (not timed or timed[0][0] > self._now):
            return ready.popleft()
        if not timed:
            raise EmptySchedule()
        when, _, event = heapq.heappop(timed)
        self._now = when
        return event, None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')``."""
        if self._ready:
            return self._now
        timed = self._timed
        return timed[0][0] if timed else inf

    def step(self) -> None:
        """Process the single next event."""
        event, fn = self._pop_entry()
        if event is None:
            fn()
            return
        if event._is_timeout and event._state is _PENDING:
            # A timeout triggers exactly when it is popped.
            event._state = _SUCCEEDED
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._state is _FAILED and not event.defused:
            raise event.value  # unhandled failure escalates to the caller

    def _advance(self, horizon: float) -> None:
        """Process every event scheduled at or before ``horizon``.

        This is :meth:`step` inlined with the queues and state constants
        as locals; both queues are mutated in place (rule 3).
        """
        ready = self._ready
        next_ready = ready.popleft
        timed = self._timed
        pop_timed = heapq.heappop
        pending, succeeded, failed = _PENDING, _SUCCEEDED, _FAILED
        now = self._now
        # Whether a timed entry may still be due at ``now`` (rule 1).  Nothing
        # scheduled during ``now`` is (rule 2), so once none is, ``ready``
        # drains without looking at the heap.
        timed_due = True
        while True:
            if timed_due or not ready:
                if timed and timed[0][0] <= now:
                    event = pop_timed(timed)[2]
                elif ready:
                    timed_due = False
                    continue
                elif timed and timed[0][0] <= horizon:
                    when, _, event = pop_timed(timed)
                    self._now = now = when
                    timed_due = True
                else:
                    return
            else:
                event, fn = next_ready()
                if event is None:
                    fn()
                    continue
            if event._is_timeout and event._state is pending:
                event._state = succeeded
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if event._state is failed and not event.defused:
                raise event.value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run up to and including that instant), an
        :class:`Event` (run until it triggers, returning its value), or
        ``None`` (run until no events remain).
        """
        if isinstance(until, Event):
            while not until.triggered:
                try:
                    self.step()
                except EmptySchedule:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        "event triggered"
                    ) from None
            if until.failed:
                until.defused = True
                raise until.value
            return until.value
        if until is None:
            self._advance(inf)
            return None
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run backwards to {horizon}")
        self._advance(horizon)
        self._now = horizon
        return None

    def run_intervals(
        self,
        interval_s: float,
        intervals: int,
        on_interval: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Advance the clock through ``intervals`` windows of ``interval_s``.

        Equivalent to ``run(until=start + k * interval_s)`` for ``k =
        1..intervals`` without re-entering :meth:`run` per interval.  After
        each boundary ``on_interval`` gets the zero-based interval index,
        with the clock parked exactly on the boundary.
        """
        if interval_s <= 0:
            raise ValueError(f"interval must be positive: {interval_s}")
        if intervals < 0:
            raise ValueError(f"negative interval count: {intervals}")
        start = self._now
        for index in range(intervals):
            horizon = start + interval_s * (index + 1)
            self._advance(horizon)
            self._now = horizon
            if on_interval is not None:
                on_interval(index)
