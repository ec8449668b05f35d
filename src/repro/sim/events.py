"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularised by
SimPy): simulation logic is written as Python generators that ``yield``
events; the :class:`~repro.sim.environment.Environment` advances virtual
time and resumes each generator when the event it waits on is triggered.

Only the pieces the SOAP reproduction needs are implemented, but they are
implemented completely: success/failure propagation, process interruption,
and ``AllOf``/``AnyOf`` composition.

No-cycle rule: **an event never holds a reference that leads back to
itself once it has triggered** (a granted request carries no value, a
triggered condition drops its children), so whatever a transaction
allocates dies by reference count and the cyclic collector has no work.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .environment import Environment


class EventState(enum.Enum):
    """Lifecycle states of an :class:`Event`."""

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


# The kernel reads its own slots (``_state is _PENDING``, ``_value``, ...);
# the properties, a Python-level call each, are for every other caller.
_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED
_FAILED = EventState.FAILED


class Event:
    """A condition that may be triggered once at some point in virtual time.

    Processes wait on events by yielding them.  An event carries a *value*
    (delivered to waiters on success) or an *exception* (raised inside
    waiters on failure).

    Events are allocated (and discarded) once per transaction step, so the
    kernel classes declare ``__slots__``; subclasses outside this module
    that need ad-hoc attributes simply omit ``__slots__`` and get a
    ``__dict__`` as usual.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_exception", "defused")

    #: Class-level flag the environment's hot loop reads instead of an
    #: ``isinstance(event, Timeout)`` check.
    _is_timeout = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Waiters, run when the event is processed (``None`` from then
        #: on).  Only a *pending* event is ever attached to.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Set by the environment when a failed event's exception was
        #: delivered to at least one waiter (or explicitly defused).
        self.defused = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has succeeded or failed."""
        return self._state is not EventState.PENDING

    @property
    def ok(self) -> bool:
        """``True`` when the event succeeded."""
        return self._state is EventState.SUCCEEDED

    @property
    def failed(self) -> bool:
        """``True`` when the event failed."""
        return self._state is EventState.FAILED

    @property
    def value(self) -> Any:
        """The success value, or the failure exception."""
        if self._state is EventState.FAILED:
            return self._exception
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Waiters run when the queue reaches the entry made here.  With
        none there is no entry and the event is processed on the spot:
        nothing attaches to a triggered event (a process yielding one
        gets ``_wait_on``'s own wake-up, a condition reads it directly).
        """
        if self._state is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._state = _SUCCEEDED
        self._value = value
        if self.callbacks:
            self.env._enqueue_triggered(self)
        else:
            self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Takes a queue entry even with nobody waiting: an undefused
        failure escalates out of the event loop when the entry pops.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._state = _FAILED
        self._exception = exception
        self.env._enqueue_triggered(self)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._state.value} at t={self.env.now}>"


class Timeout(Event):
    """An event that succeeds after ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    _is_timeout = True

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__, flat: one per service and network step.
        self.env = env
        self.callbacks = []
        self._state = _PENDING
        self._value = value
        self._exception = None
        self.defused = False
        self.delay = delay
        env._schedule_at(env._now + delay, self)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available as
    ``interrupt.cause`` to the interrupted process.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator so it can run as a simulation process.

    The process *is itself an event*: it succeeds with the generator's
    return value, or fails with an uncaught exception, so other processes
    may wait on its completion.
    """

    __slots__ = ("_generator", "_waiting_on", "_wake_token")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        #: The pending event whose callbacks hold ``self._resume``.
        self._waiting_on: Optional[Event] = None
        #: While parked on an *already-triggered* event: what the queued
        #: wake-up must still match to be delivered.
        self._wake_token: Optional[object] = None
        # Kick-off at the current instant: send ``None`` into the fresh
        # generator.  A bare callback takes the queue position of the
        # immediately-succeeding start event it replaces.
        env._call_soon(partial(self._step, generator.send, None))

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return self._state is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self._state is not _PENDING:
            raise RuntimeError("cannot interrupt a finished process")
        if self._waiting_on is self:
            raise RuntimeError("a process cannot interrupt itself")
        waiting_on = self._waiting_on
        if waiting_on is not None and waiting_on.callbacks is not None:
            try:
                waiting_on.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        # A wake-up already queued for a triggered target is now stale.
        self._wake_token = None
        self.env._call_soon(lambda: self._throw(Interrupt(cause)))

    # ------------------------------------------------------------------
    # Internal stepping
    # ------------------------------------------------------------------
    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        """Advance the generator off the hot path (kick-off, throw); a
        no-op on a finished process (a stale kick-off or interrupt)."""
        if self._state is not _PENDING:
            return
        self._wake_token = None  # a throw ends whatever wait it lands in
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - kernel boundary
            self.fail(exc)
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        if self._state is not _PENDING:
            # Stale wake-up: the process already finished — e.g. it was
            # interrupted before its first resume, so the kick-off (or a
            # pending wait target) still held this callback.
            if event._state is _FAILED:
                event.defused = True
            return
        self._waiting_on = None
        try:
            if event._state is _FAILED:
                event.defused = True
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - kernel boundary
            self.fail(exc)
            return
        # _wait_on's common case, inline: park on a pending event.
        if isinstance(target, Event) and target._state is _PENDING:
            target.callbacks.append(self._resume)
            self._waiting_on = target
        else:
            self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        self._step(self._generator.throw, exc)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(TypeError(f"process yielded a non-event: {target!r}"))
            return
        if target._state is _PENDING:
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return
        # Already done: resume on the next tick to keep ordering fair —
        # a bare callback guarded by a token of this one wait, so that an
        # interrupt detaches us by clearing it and a later wait on the
        # very same event is told apart.
        token = self._wake_token = object()
        self.env._call_soon(partial(self._wake, token, target))

    def _wake(self, token: object, target: Event) -> None:
        if token is self._wake_token:
            self._wake_token = None
            self._resume(target)


class Condition(Event):
    """Base for composite events over a set of child events.

    Stays attached to its children (one failing late is still defused) but
    drops its references *to* them when it triggers: the no-cycle rule.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events: tuple[Event, ...] = tuple(events)
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")
        self._count = 0
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event._state is not _PENDING:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self._events
            if event._state is _SUCCEEDED
        }

    def _on_child(self, event: Event) -> None:
        if event._state is _FAILED:
            # Always defuse: a child failing after the condition already
            # triggered must not escalate to the event loop.
            event.defused = True
            if self._state is _PENDING:
                self.fail(event._exception)
                self._events = ()
            return
        if self._state is not _PENDING:
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._events = ()

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Succeeds when *all* child events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(Condition):
    """Succeeds when *any* child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1
