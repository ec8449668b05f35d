"""The pre-calendar-queue scheduler, kept verbatim as a test oracle.

This is the single-binary-heap :class:`Environment` the kernel shipped
with before the bucketed calendar queue replaced it: one ``heappush`` per
scheduled occurrence, one ``heappop`` per processed event, ordering by
``(when, seq)``.  The algorithm is deliberately boring — its correctness
is easy to see by inspection — which is exactly what makes it a good
oracle: the equivalence suite runs real workloads through both
schedulers and asserts bit-identical behaviour.

The only additions over the historical file are the two seams the event
classes now use (kept so :mod:`repro.sim.events` runs unmodified against
either scheduler):

* entries are 4-tuples ``(when, seq, event, fn)`` instead of 3-tuples;
* :meth:`HeapqEnvironment._call_soon` heaps a bare-callback entry, the
  same way the production scheduler routes process kick-off and
  interrupt delivery.

Do not "improve" this file — its value is that it does not change.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, EventState, Process, Timeout

_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED
_FAILED = EventState.FAILED


class EmptySchedule(Exception):
    """Raised by :meth:`HeapqEnvironment.step` when no events remain."""


class HeapqEnvironment:
    """Single-heap reference scheduler (old `repro.sim.Environment`)."""

    def __init__(self, initial_time: float = 0.0, **_ignored: Any) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple] = []
        self._seq = count()

    @property
    def now(self) -> float:
        return self._now

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling seams used by the event classes ---------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past ({when} < {self._now})"
            )
        heapq.heappush(self._queue, (when, next(self._seq), event, None))

    def _enqueue_triggered(self, event: Event) -> None:
        if event._is_timeout:
            return
        heapq.heappush(self._queue, (self._now, next(self._seq), event, None))

    def _call_soon(self, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self._now, next(self._seq), None, fn))

    # -- running --------------------------------------------------------
    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        if not self._queue:
            raise EmptySchedule()
        when, _seq, event, fn = heapq.heappop(self._queue)
        self._now = when
        if event is None:
            fn()
            return
        if event._is_timeout and event._state is _PENDING:
            event._state = _SUCCEEDED
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._state is _FAILED and not event.defused:
            raise event.value

    def _advance(self, horizon: float) -> None:
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= horizon:
            when, _seq, event, fn = pop(queue)
            self._now = when
            if event is None:
                fn()
                continue
            if event._is_timeout and event._state is _PENDING:
                event._state = _SUCCEEDED
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if event._state is _FAILED and not event.defused:
                raise event.value

    def run(self, until: Optional[float | Event] = None) -> Any:
        if isinstance(until, Event):
            stop_event = until
            while not stop_event.triggered:
                try:
                    self.step()
                except EmptySchedule:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        "event triggered"
                    ) from None
            if stop_event.failed:
                stop_event.defused = True
                raise stop_event.value
            return stop_event.value

        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"cannot run backwards to {horizon}")
            self._advance(horizon)
            self._now = horizon
            return None

        self._advance(float("inf"))
        return None

    def run_intervals(
        self,
        interval_s: float,
        intervals: int,
        on_interval: Optional[Callable[[int], None]] = None,
    ) -> None:
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
