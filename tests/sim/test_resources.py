"""Tests for Resource and WorkServer."""

import weakref

import pytest

from repro.sim import Resource, WorkServer, resources


class TestResource:
    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.in_use == 2
        assert resource.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = [resource.request() for _ in range(3)]
        resource.release(held)
        assert queued[0].triggered
        assert not queued[1].triggered
        resource.release(queued[0])
        assert queued[1].triggered

    def test_release_waiting_request_removes_it(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        waiting = resource.request()
        resource.release(waiting)  # withdraw before grant
        assert resource.queue_length == 0
        resource.release(held)
        assert resource.in_use == 0

    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_cancel_is_alias_for_release(self, env):
        resource = Resource(env, capacity=1)
        request = resource.request()
        resource.cancel(request)
        assert resource.in_use == 0


class TestRequestLifetime:
    """A request holds no reference that leads back to itself, so it is
    gone by reference count the moment its owner lets go of it."""

    @pytest.fixture
    def watch(self, monkeypatch):
        """Weak references to every request made (the kernel's own class
        is slotted and cannot be weakly referenced; a subclass can)."""

        class Watched(resources.Request):
            pass

        made = []

        def request(resource):
            watched = Watched(resource)
            made.append(weakref.ref(watched))
            return watched

        monkeypatch.setattr(resources, "Request", request)
        return made

    def test_released_and_withdrawn_requests_die_by_refcount(
        self, env, watch, collector_off
    ):
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = resource.request()
        withdrawn = resource.request()
        assert held.triggered and held.granted
        assert (resource.in_use, resource.queue_length) == (1, 2)

        resource.cancel(withdrawn)  # while still queued
        assert (resource.in_use, resource.queue_length) == (1, 1)
        resource.release(held)  # grants the next in line
        assert queued.triggered and queued.granted and not withdrawn.triggered
        resource.release(queued)
        assert (resource.in_use, resource.queue_length) == (0, 0)

        del held, queued, withdrawn
        assert [ref() for ref in watch] == [None, None, None]

    def test_requests_a_process_waited_on_die_with_it(
        self, env, watch, collector_off
    ):
        server = WorkServer(env, rate=1.0)
        order = []

        def job(name):
            yield from server.work(1)
            order.append((env.now, name))

        for name in "abc":
            env.process(job(name))
        env.run()
        assert order == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert len(watch) == 3
        assert [ref() for ref in watch] == [None, None, None]


class TestWorkServer:
    def test_service_time_scales_with_rate(self, env):
        server = WorkServer(env, rate=4.0)
        assert server.service_time(8.0) == 2.0

    def test_jobs_serialise_on_single_slot(self, env):
        server = WorkServer(env, rate=10.0, concurrency=1)
        finish_times = []

        def job():
            yield from server.work(10)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(job())
        env.run()
        assert finish_times == [1.0, 2.0, 3.0]

    def test_concurrency_allows_parallel_service(self, env):
        server = WorkServer(env, rate=10.0, concurrency=3)
        finish_times = []

        def job():
            yield from server.work(10)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(job())
        env.run()
        assert finish_times == [1.0, 1.0, 1.0]

    def test_utilisation_tracks_busy_time(self, env):
        server = WorkServer(env, rate=10.0)

        def job():
            yield from server.work(10)

        env.process(job())
        env.run(until=2.0)
        assert server.utilisation() == pytest.approx(0.5)

    def test_negative_work_rejected(self, env):
        server = WorkServer(env, rate=1.0)
        with pytest.raises(ValueError):
            server.service_time(-1)

    def test_rate_must_be_positive(self, env):
        with pytest.raises(ValueError):
            WorkServer(env, rate=0)

    def test_queue_length_visible(self, env):
        server = WorkServer(env, rate=1.0, concurrency=1)

        def job():
            yield from server.work(100)

        for _ in range(4):
            env.process(job())
        env.run(until=1)
        assert server.in_service == 1
        assert server.queue_length == 3

    def test_rate_change_affects_future_jobs(self, env):
        server = WorkServer(env, rate=1.0)
        finish_times = []

        def job():
            yield from server.work(10)
            finish_times.append(env.now)

        def speed_up():
            yield env.timeout(10)  # after job 1 completes
            server.rate = 10.0

        env.process(job())
        env.process(speed_up())
        env.run()

        env2_done = []

        def job2():
            yield from server.work(10)
            env2_done.append(env.now)

        env.process(job2())
        env.run()
        assert finish_times == [10.0]
        assert env2_done == [11.0]
