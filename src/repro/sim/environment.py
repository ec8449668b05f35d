"""The discrete-event simulation environment (virtual clock + event loop).

The scheduler is a plain FIFO for the present plus a *bucketed calendar
queue* for the future, rather than one big binary heap.  Pending entries
live in five structures:

* ``_ready`` — the **same-instant ready queue**: a ``deque`` of
  ``(event, fn)`` pairs for everything scheduled with ``when == now``
  (two thirds of a standard cell's entries).  No ``(when, seq)`` key, no
  sequence number, no heap: appended at the back, served from the front.
* ``_bucket`` — the **near-future bucket**: a list sorted ascending by
  ``(when, seq)`` consumed left-to-right through ``_pos``.  Nothing is
  ever inserted into an existing bucket, so a drain of pre-scheduled
  events costs one C-level ``list.sort`` per bucket plus an index
  increment per event, instead of a log-N ``heappop`` each.
* ``_adds`` — a small binary heap of **late arrivals**: future entries
  scheduled *after* the bucket was built whose time falls before its
  maximum (``_horizon``).  The hot loop merges ``_adds`` and ``_bucket``
  by comparing their heads.
* ``_overflow`` — **far-future** entries already sorted (descending, so
  refills slice cheaply off the tail) by an earlier refill.
* ``_inbox`` — unsorted far-future entries appended in O(1); merged and
  sorted into ``_overflow`` only when the bucket runs dry.

Refills take the smallest ``bucket_limit`` entries as the new bucket, so
one sort amortises over up to ``bucket_limit`` pops.  Ordering is exactly
the classic ``(when, seq)`` heap order — the equivalence suite under
``tests/`` proves pop order (and full experiment output) bit-identical to
the old single-heap scheduler.  For the FIFO that holds because a heap
would key everything scheduled at the instant ``now`` as ``(now, seq)``
with ``seq`` rising in scheduling order, which is first-in-first-out,
provided four rules are kept:

1. a *timed* entry (bucket or ``_adds``) due at ``now`` was scheduled at
   an earlier instant — a smaller ``seq`` — so it is served **before**
   any ready entry;
2. *every* ``when == now`` schedule goes to ``_ready``, a zero-delay
   timeout included (the test is ``now + delay == now``), or ties would
   lose their order;
3. with bucket and ``_adds`` spent but ``_overflow``/``_inbox`` not,
   **refill before serving ready**: a far-future entry can be due at
   ``now`` exactly (``when == _horizon`` is not ``< _horizon``);
4. ``peek()``, ``step()``, ``_advance()`` and ``run_intervals()`` all
   see the ready queue, and a raising callback leaves it consistent, as
   the ``finally`` write-back does the bucket cursor: the entry that
   raised is gone, those behind it are served by the next call.

A ready entry whose ``event`` is ``None`` is a **bare callback**
(``fn()``): process kick-off, interrupt delivery and the wake-up after
yielding a triggered event need no Event plus callbacks list.
Cancellation stays lazy: a detached waiter's entry stays and pops to an
empty-list check.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from math import inf
from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, EventState, Process, Timeout

#: One timed queue entry, ``(when, seq, event)`` — ``seq`` is unique, so
#: tuple comparison never reaches the event — and one same-instant entry,
#: ``(event, fn)`` with exactly one of the two set.  Those slots are typed
#: ``Any`` because narrowing them structurally (a union + isinstance per
#: pop) would put a check in the hottest loop in the simulator purely for
#: the type checker's benefit.
Entry = tuple[float, int, Any]
Ready = tuple[Any, Any]

# Hot-loop locals: every event pop compares against these states, so the
# enum lookups are hoisted to module level.
_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED
_FAILED = EventState.FAILED

#: Default cap on one near-future bucket: one sort amortises over up to
#: this many pops, while refills stay cheap enough to interleave with
#: late arrivals.
DEFAULT_BUCKET_LIMIT = 2048


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Coordinates virtual time and executes scheduled events in order.

    Events scheduled for the same instant are executed in the order they
    were scheduled (a monotonically increasing sequence number breaks
    ties), which makes runs fully deterministic.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        bucket_limit: int = DEFAULT_BUCKET_LIMIT,
    ) -> None:
        if bucket_limit < 1:
            raise ValueError(f"bucket limit must be >= 1: {bucket_limit}")
        self._now: float = float(initial_time)
        self._seq: count[int] = count()
        self._bucket_limit: int = bucket_limit
        # See the module docstring for the five-structure layout.
        self._ready: deque[Ready] = deque()
        self._bucket: list[Entry] = []
        self._pos: int = 0  # next unconsumed index into _bucket
        self._adds: list[Entry] = []
        self._overflow: list[Entry] = []
        self._inbox: list[Entry] = []
        #: Times strictly below the horizon must interleave with the
        #: current bucket (they go to the ``_adds`` heap); times at or
        #: above it sort after everything in the bucket and may be
        #: appended to the inbox unsorted.  ``-inf`` until the first
        #: refill so initial scheduling is pure O(1) appends.
        self._horizon: float = -inf

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
        entry = (when, next(self._seq), event)
        if when < self._horizon:
            heapq.heappush(self._adds, entry)
        else:
            self._inbox.append(entry)

    def _enqueue_triggered(self, event: Event) -> None:
        """Queue a just-triggered event's callbacks to run at the current time."""
        if event._is_timeout:
            # Timeouts were queued at construction by _schedule_at; a
            # second entry would pop them twice.  Their callbacks run
            # when the queue reaches the original entry.
            return
        self._ready.append((event, None))

    def _call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule a bare callback at the current instant: the queue
        position of a fresh event succeeded with ``fn`` as its only
        callback, without the event, its list, or the trigger."""
        self._ready.append((None, fn))

    def _refill(self) -> None:
        """Rebuild the near-future bucket from the far-future entries.

        Called only when the bucket is consumed and the late-arrival heap
        is empty, with at least one far-future entry pending.
        """
        overflow = self._overflow
        inbox = self._inbox
        if inbox:
            overflow.extend(inbox)
            inbox.clear()
            # Timsort: ``overflow`` was already descending and the inbox
            # is close to one run, so this is near a linear merge.
            overflow.sort(reverse=True)
        if len(overflow) <= self._bucket_limit:
            bucket = overflow
            self._overflow = []
        else:
            bucket = overflow[-self._bucket_limit:]
            del overflow[-self._bucket_limit:]
        bucket.reverse()  # descending tail slice -> ascending bucket
        self._bucket = bucket
        self._pos = 0
        # Everything at or after the bucket's maximum key sorts after the
        # whole bucket (later inserts carry larger sequence numbers), so
        # it can wait unsorted in the inbox.
        self._horizon = bucket[-1][0]

    def _timed_head(self) -> Optional[Entry]:
        """The next timed entry, left in place, or ``None``; refills first
        when bucket and late arrivals are spent (rule 3)."""
        while True:
            bucket = self._bucket
            pos = self._pos
            adds = self._adds
            if pos < len(bucket):
                head = bucket[pos]
                return adds[0] if adds and adds[0] < head else head
            if adds:
                return adds[0]
            if not (self._overflow or self._inbox):
                return None
            self._refill()

    def _pop_entry(self) -> Ready:
        """Remove and return the next ``(event, fn)``; the clock moves to it."""
        head = self._timed_head()
        ready = self._ready
        if ready and (head is None or head[0] > self._now):
            return ready.popleft()
        if head is None:
            raise EmptySchedule()
        adds = self._adds
        if adds and adds[0] is head:
            heapq.heappop(adds)
        else:
            self._pos += 1
        self._now = head[0]
        return head[2], None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')``."""
        if self._ready:
            return self._now
        head = self._timed_head()
        return inf if head is None else head[0]

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

        This is :meth:`step` inlined: queues, bucket cursor and state
        constants are locals, so the per-event overhead is a ``popleft``
        (or an index increment), one falsy check, and the callbacks.  The
        cursor is written back in a ``finally`` so a callback raising (or
        the horizon cutting a bucket short) never loses queue state; the
        ready queue is mutated in place.
        """
        ready = self._ready
        next_ready = ready.popleft
        bucket = self._bucket
        pos = self._pos
        blen = len(bucket)
        adds = self._adds
        pop_add = heapq.heappop
        pending = _PENDING
        succeeded = _SUCCEEDED
        failed = _FAILED
        now = self._now
        # Whether a timed entry may still be due at ``now`` (rule 1); once
        # none is, ``ready`` drains without looking at the timed side.
        timed_due = True
        try:
            while True:
                if timed_due or not ready:
                    late = False
                    if pos < blen:
                        entry = bucket[pos]
                        if adds and adds[0] < entry:
                            entry = adds[0]
                            late = True
                    elif adds:
                        entry = adds[0]
                        late = True
                    elif self._overflow or self._inbox:
                        self._pos = pos
                        self._refill()
                        bucket = self._bucket
                        pos = self._pos
                        blen = len(bucket)
                        continue
                    elif ready:
                        timed_due = False
                        continue
                    else:
                        return
                    when = entry[0]
                    if when > now:
                        if ready:
                            timed_due = False
                            continue
                        if when > horizon:
                            return
                        self._now = now = when
                    if late:
                        pop_add(adds)
                    else:
                        pos += 1
                    timed_due = True
                    event = entry[2]
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
        finally:
            self._pos = pos

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run up to and including that instant), an
        :class:`Event` (run until it triggers, returning its value), or
        ``None`` (run until no events remain).
        """
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

        self._advance(inf)
        return None

    def run_intervals(
        self,
        interval_s: float,
        intervals: int,
        on_interval: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Advance the clock through ``intervals`` windows of ``interval_s``.

        Equivalent to calling ``run(until=start + k * interval_s)`` for
        ``k = 1..intervals``, but in one batch-stepping pass: the hot loop
        is entered once per interval instead of re-entering :meth:`run`
        (and re-validating its arguments) from the caller.  After each
        interval boundary ``on_interval`` is invoked with the zero-based
        interval index, with the clock parked exactly on the boundary.
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
