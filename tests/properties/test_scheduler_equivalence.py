"""Property test: the production scheduler matches the heapq oracle.

Hypothesis generates random interleavings of timeouts, callback-driven
re-scheduling, processes, interrupts, lazy cancellations, and defused
failures; each program is interpreted twice — once on the single-heap
scheduler kept verbatim under ``tests/sim/heapq_reference.py``, which
keys every entry ``(when, seq)``, and once on the production
:class:`repro.sim.Environment`, which keeps same-instant work in a ready
queue beside its heap — and the full firing log (virtual time + which
callback, i.e. the pop order) must be identical.

The *same-instant* shapes get their own programs: events succeeded from
inside a callback with and without a waiter, processes yielding events
that triggered before the yield, conditions over a pre-triggered child —
all on small integer delays (zero included), so ties are the rule and
timed entries keep falling due at an instant that already has ready
work, which they must precede.
"""

from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt

from ..hypothesis_budget import examples
from ..sim.heapq_reference import HeapqEnvironment

#: Delays are floats on purpose — both schedulers must order identical
#: float keys identically, including ties broken by sequence number.
_delays = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=50).map(float),
)

#: Whole ticks, zero included: ties at one instant are the rule.
_ticks = st.integers(min_value=0, max_value=4).map(float)


def _ops(delays):
    return st.one_of(
        # plain timeout with a logging callback
        st.tuples(st.just("timeout"), delays),
        # timeout whose callback schedules more timeouts (inserts land
        # while earlier entries are still pending)
        st.tuples(st.just("chain"), delays, st.lists(delays, max_size=3)),
        # a process sleeping through several timeouts
        st.tuples(st.just("proc"), st.lists(delays, min_size=1, max_size=4)),
        # a process that interrupts an earlier process mid-sleep
        st.tuples(st.just("interrupt"), st.integers(0, 7), delays),
        # lazy cancellation: the queue entry stays, the callback is detached
        st.tuples(st.just("cancelled"), delays),
        # failed-and-defused timeout: pops once, never escalates
        st.tuples(st.just("fail"), delays),
        # events succeeded from inside a callback at the same instant, one
        # after the other; per link, whether anybody waits on it
        st.tuples(
            st.just("relay"),
            delays,
            st.lists(st.booleans(), min_size=1, max_size=4),
        ),
        # a process yielding an event that already succeeded / failed
        st.tuples(st.just("pretriggered"), delays, st.booleans(), delays),
        # any_of / all_of over a child that triggered before the condition
        # was built
        st.tuples(st.just("condition"), delays, st.booleans(), delays),
    )


#: Programs on float delays, or on whole ticks where ties are everywhere
#: (the same-instant shapes).
_cases = st.one_of(
    st.lists(_ops(_delays), max_size=25),
    st.lists(_ops(_ticks), max_size=25),
)


def _build(env, program, log):
    """Interpret ``program`` against ``env``, recording into ``log``."""
    procs = []

    def logging_cb(tag):
        def cb(_event):
            log.append((env.now, tag))

        return cb

    for index, op in enumerate(program):
        kind = op[0]
        if kind == "timeout":
            env.timeout(op[1]).callbacks.append(logging_cb(("t", index)))
        elif kind == "chain":
            nested = op[2]

            def chain_cb(_event, index=index, nested=nested):
                log.append((env.now, ("chain", index)))
                for j, delay in enumerate(nested):
                    env.timeout(delay).callbacks.append(
                        logging_cb(("nested", index, j))
                    )

            env.timeout(op[1]).callbacks.append(chain_cb)
        elif kind == "proc":

            def body(delays=op[1], index=index):
                for j, delay in enumerate(delays):
                    try:
                        yield env.timeout(delay)
                    except Interrupt as interrupt:
                        log.append(
                            (env.now, ("interrupted", index, j, interrupt.cause))
                        )
                        return
                    log.append((env.now, ("woke", index, j)))

            procs.append(env.process(body()))
        elif kind == "interrupt":
            target, delay = op[1], op[2]

            def killer(target=target, delay=delay, index=index):
                yield env.timeout(delay)
                if procs:
                    victim = procs[target % len(procs)]
                    if victim.is_alive:
                        victim.interrupt(("chaos", index))
                        log.append((env.now, ("killed", index)))

            env.process(killer())
        elif kind == "cancelled":
            timeout = env.timeout(op[1])
            cb = logging_cb(("never", index))
            timeout.callbacks.append(cb)
            timeout.callbacks.remove(cb)
        elif kind == "fail":
            timeout = env.timeout(op[1])
            timeout.callbacks.append(logging_cb(("failed", index)))
            timeout.fail(RuntimeError("boom"))
            timeout.defused = True
        elif kind == "relay":

            def relay(_event, index=index, waited=op[2], link=0):
                # Succeed the links from ``link`` on: an unwaited one
                # carries no information and the next follows at once; a
                # waited one hands over to its callback.
                while link < len(waited):
                    event = env.event()
                    if waited[link]:

                        def passed_on(_event, link=link):
                            log.append((env.now, ("relay", index, link)))
                            relay(_event, link=link + 1)

                        event.callbacks.append(passed_on)
                        event.succeed(link)
                        return
                    event.succeed(link)
                    link += 1

            env.timeout(op[1]).callbacks.append(relay)
        elif kind == "pretriggered":

            def early_bird(delay=op[1], fails=op[2], nap=op[3], index=index):
                # An interrupt may land while parked on the triggered
                # event: the wake-up already queued must then be dropped.
                try:
                    yield env.timeout(delay)
                    event = env.event()
                    if fails:
                        event.fail(RuntimeError("early"))
                        event.defused = True
                    else:
                        event.succeed("early")
                    try:
                        got = yield event
                    except RuntimeError as error:
                        got = str(error)
                    log.append((env.now, ("pretriggered", index, got)))
                    yield env.timeout(nap)
                    log.append((env.now, ("napped", index)))
                except Interrupt as interrupt:
                    log.append(
                        (env.now, ("bird interrupted", index, interrupt.cause))
                    )

            procs.append(env.process(early_bird()))
        elif kind == "condition":

            def conditional(delay=op[1], any_of=op[2], other=op[3], index=index):
                yield env.timeout(delay)
                done = env.event()
                done.succeed("early")
                children = [done, env.timeout(other, value="late")]
                condition = (env.any_of if any_of else env.all_of)(children)
                results = yield condition
                log.append(
                    (env.now, ("condition", index, sorted(results.values())))
                )

            env.process(conditional())
    return procs


def _execute(make_env, program):
    env = make_env()
    log = []
    _build(env, program, log)
    env.run()
    log.append(("final", env.now))
    return log


def _execute_stepwise(make_env, program):
    """Drive via peek()/step(), recording the exact pop schedule."""
    env = make_env()
    log = []
    _build(env, program, log)
    trace = []
    while True:
        upcoming = env.peek()
        trace.append(upcoming)
        if upcoming == inf:
            break
        env.step()
        trace.append(env.now)
    return log, trace


def _execute_intervals(make_env, program):
    env = make_env()
    log = []
    _build(env, program, log)
    boundaries = []
    env.run_intervals(
        7.0, 9, on_interval=lambda i: boundaries.append((i, env.now, len(log)))
    )
    return log, boundaries


class TestPopOrderEquivalence:
    @settings(max_examples=examples(400), deadline=None)
    @given(program=_cases)
    def test_run_produces_identical_firing_log(self, program):
        reference = _execute(HeapqEnvironment, program)
        actual = _execute(Environment, program)
        assert actual == reference

    @settings(max_examples=examples(200), deadline=None)
    @given(program=_cases)
    def test_stepwise_peek_and_pop_schedule_identical(self, program):
        ref_log, ref_trace = _execute_stepwise(HeapqEnvironment, program)
        log, trace = _execute_stepwise(Environment, program)
        assert log == ref_log
        assert trace == ref_trace

    @settings(max_examples=examples(200), deadline=None)
    @given(program=_cases)
    def test_interval_batched_run_identical(self, program):
        ref = _execute_intervals(HeapqEnvironment, program)
        actual = _execute_intervals(Environment, program)
        assert actual == ref
