"""Fuzzing the two schedule DSL parsers (ROADMAP item 5).

``--elasticity-schedule`` and ``--fault-schedule`` take text from outside
the program.  Whatever that text is, a parser either raises
:class:`~repro.errors.ConfigError` or returns a config the simulator can
run: every number in it finite.  Any other exception is a crash at the
CLI, and a NaN or infinite time is an event that silently never fires.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elasticity import parse_elasticity_schedule
from repro.errors import ConfigError
from repro.faults import parse_fault_schedule

from ..hypothesis_budget import examples

#: Number-ish tokens, weighted toward what ``float``/``int`` accept but
#: the schedules cannot run.
NUMBERS = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "1e999", "-0", "0", "2.9", "3.0", "1_0",
        "١٢", " 7 ", "", "+5", "1e3", "0x10", "9" * 400,
    ]),
    st.integers(-5, 500).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
WORDS = st.sampled_from([
    "add", "drain", "crash", "restart", "high", "low", "check", "max",
    "min", "grace", "escalate", "ops", "mtbf", "mttr", "start", "end",
    "foo", "",
])
EVENT = st.tuples(NUMBERS, WORDS, NUMBERS).map(":".join)
PAIR = st.tuples(WORDS, NUMBERS).map("=".join)
#: Grammar-shaped text (so the fuzzer gets past the first guard) mixed
#: with arbitrary text.
SCHEDULE_TEXT = st.one_of(
    st.lists(st.one_of(EVENT, PAIR), max_size=6).map(",".join),
    st.text(alphabet="0123456789.:=,-+e naifhlowx", max_size=40),
    st.text(max_size=40),
)


def numbers_in(config):
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "events":
            for event in value:
                yield from numbers_in(event)
        elif isinstance(value, (int, float)):
            yield value


@settings(max_examples=examples(400), deadline=None)
@given(SCHEDULE_TEXT)
def test_parsers_raise_config_error_or_return_finite_configs(text):
    for parse in (parse_elasticity_schedule, parse_fault_schedule):
        try:
            config = parse(text)
        except ConfigError:
            continue
        assert all(math.isfinite(n) for n in numbers_in(config)), config
