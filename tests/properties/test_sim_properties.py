"""Property-based tests: kernel determinism, queue, parser, PID."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import PIDController
from repro.routing import parse_query
from repro.routing.query import Query
from repro.sim import Environment, ZipfSampler
from repro.txn import ProcessingQueue, Transaction
from repro.types import AccessMode, Priority, TxnKind

from ..hypothesis_budget import examples


class TestKernelDeterminism:
    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_timeout_order_matches_sorted_delays(self, delays):
        env = Environment()
        fired = []

        def proc(delay, index):
            yield env.timeout(delay)
            fired.append((env.now, index))

        for index, delay in enumerate(delays):
            env.process(proc(delay, index))
        env.run()
        assert [t for t, _i in fired] == sorted(t for t, _i in fired)
        # Equal delays fire in creation order.
        expected = sorted(
            range(len(delays)), key=lambda i: (delays[i], i)
        )
        assert [i for _t, i in fired] == expected


class TestQueueProperties:
    @settings(max_examples=examples(100), deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.sampled_from(list(Priority)),
            ),
            unique_by=lambda item: item[0],
            max_size=30,
        )
    )
    def test_pop_order_is_priority_then_fifo(self, items):
        env = Environment()
        queue = ProcessingQueue(env)
        for txn_id, priority in items:
            queue.put(
                Transaction(
                    txn_id=txn_id,
                    kind=TxnKind.NORMAL,
                    queries=[Query("t", 0, AccessMode.READ)],
                    priority=priority,
                )
            )
        popped = []
        while True:
            txn = queue.pop()
            if txn is None:
                break
            popped.append(txn)
        # Stable sort of the input by priority reproduces pop order.
        expected = [
            txn_id
            for txn_id, _p in sorted(
                items,
                key=lambda item: int(item[1]),
            )
        ]
        # Python's sorted is stable, so FIFO-within-priority is preserved.
        assert [t.txn_id for t in popped] == expected


class TestParserProperties:
    @settings(max_examples=examples(200), deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.booleans(),
    )
    def test_to_sql_parse_roundtrip(self, key, value, is_write):
        if is_write:
            query = Query("accounts", key, AccessMode.WRITE, value=value)
        else:
            query = Query("accounts", key, AccessMode.READ)
        assert parse_query(query.to_sql()) == query


class TestZipfProperties:
    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_probabilities_valid_distribution(self, n, s, seed):
        sampler = ZipfSampler(n, s, random.Random(seed))
        assert abs(sum(sampler.probabilities) - 1.0) < 1e-9
        assert all(p > 0 for p in sampler.probabilities)
        assert 0 <= sampler.sample() < n

    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    )
    def test_top_mass_monotone(self, n, s):
        sampler = ZipfSampler(n, s, random.Random(0))
        masses = [sampler.top_mass(k) for k in range(n + 1)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


class TestPIDProperties:
    @settings(max_examples=examples(200), deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_pure_p_is_linear_in_error(self, kp, setpoint, pv):
        pid = PIDController(kp=kp, setpoint=setpoint)
        assert pid.update(pv) == (setpoint - pv) * kp

    @settings(max_examples=examples(100), deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_integral_bounded_by_limit(self, pvs):
        pid = PIDController(
            kp=0.0, ki=1.0, setpoint=0.0, integral_limit=3.0
        )
        for pv in pvs:
            output = pid.update(pv)
            assert -3.0 <= output <= 3.0
