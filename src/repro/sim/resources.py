"""Shared-capacity resources for the simulation kernel.

Two abstractions are provided:

* :class:`Resource` — a counted semaphore with a FIFO wait queue, used to
  model bounded concurrency (e.g. a node's connection limit).
* :class:`WorkServer` — a processor-sharing-free, slot-based work server
  used to model a node's CPU/IO capacity: callers submit an amount of
  *work units* and are delayed by ``units / rate`` once a slot is free.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.granted = False


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        request = resource.request()
        yield request
        try:
            ...  # hold the slot
        finally:
            resource.release(request)
    """

    def __init__(self, env: "Environment", capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event succeeds when granted — with
        an unspecified value (carrying itself would be a reference cycle):
        keep the request in a local, as in the usage above."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``."""
        if not request.granted:
            # The request never got a slot (e.g. the owner aborted while
            # waiting); just drop it from the queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            return
        request.granted = False
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def cancel(self, request: Request) -> None:
        """Withdraw a request (granted or not)."""
        self.release(request)

    def fail_waiting(
        self, make_exc: Callable[[], BaseException]
    ) -> int:
        """Fail every queued (ungranted) request with a fresh exception.

        Used by failure injection: when the resource's owner crashes,
        processes parked in the wait queue are woken with the supplied
        error instead of dangling forever.  Granted slots are untouched —
        their owners are interrupted through other channels and release
        normally.  Returns the number of requests failed.
        """
        waiting, self._waiting = self._waiting, deque()
        for request in waiting:
            if not request.triggered:
                request.fail(make_exc())
        return len(waiting)

    def _grant(self, request: Request) -> None:
        request.granted = True
        self._in_use += 1
        request.succeed()


class WorkServer:
    """Models a node's processing capacity in *work units per second*.

    ``concurrency`` slots are served simultaneously; each admitted job
    takes ``units / rate`` seconds of virtual time.  With ``concurrency``
    equal to one, the server is an M/G/1-style queue — this is how data
    node CPUs are modelled so that saturation produces queueing delay, the
    central dynamic in the paper's high-load experiments.
    """

    def __init__(
        self,
        env: "Environment",
        rate: float,
        concurrency: int = 1,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self._resource = Resource(env, concurrency)
        self._busy_until = 0.0
        self._total_busy_time = 0.0
        #: When ``True`` every in-service job carries a kill event so a
        #: crash can abort it mid-service.  Off by default: the kill
        #: plumbing allocates two extra events per job, which the
        #: fault-free hot path should not pay for.
        self._interruptible = False
        self._kills: set[Event] = set()

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a serving slot."""
        return self._resource.queue_length

    @property
    def in_service(self) -> int:
        """Jobs currently being served."""
        return self._resource.in_use

    @property
    def total_busy_time(self) -> float:
        """Cumulative virtual time spent serving work (for utilisation)."""
        return self._total_busy_time

    def service_time(self, units: float) -> float:
        """Seconds of service required for ``units`` of work."""
        if units < 0:
            raise ValueError(f"negative work: {units}")
        return units / self.rate

    @property
    def interruptible(self) -> bool:
        """Whether in-service jobs can be killed by :meth:`fail_all`."""
        return self._interruptible

    def make_interruptible(self) -> None:
        """Enable mid-service kills (required for in-flight crashes)."""
        self._interruptible = True

    def work(self, units: float) -> Generator[Event, Any, None]:
        """Process generator: queue for a slot, then serve ``units``."""
        request = self._resource.request()
        yield request
        if not self._interruptible:
            try:
                duration = self.service_time(units)
                self._total_busy_time += duration
                yield Timeout(self.env, duration)
            finally:
                self._resource.release(request)
            return
        kill = Event(self.env)
        self._kills.add(kill)
        try:
            duration = self.service_time(units)
            self._total_busy_time += duration
            # A failing kill event fails the AnyOf, which raises the
            # crash exception right here inside the serving process.
            yield self.env.any_of([self.env.timeout(duration), kill])
        finally:
            self._kills.discard(kill)
            self._resource.release(request)

    def fail_all(self, make_exc: Callable[[], BaseException]) -> int:
        """Abort every queued and (if interruptible) in-service job.

        Queued jobs' slot requests fail immediately; in-service jobs'
        kill events fire, aborting them mid-service.  Returns the number
        of jobs failed.
        """
        failed = self._resource.fail_waiting(make_exc)
        kills, self._kills = self._kills, set()
        for kill in kills:
            if not kill.triggered:
                kill.fail(make_exc())
                failed += 1
        return failed

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        """Fraction of elapsed time this server spent busy."""
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self._total_busy_time / horizon)
