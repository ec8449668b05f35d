"""Shared pytest fixtures; also makes the suite runnable uninstalled."""

import gc
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from repro.sim import Environment  # noqa: E402

from .hypothesis_budget import BASE_EXAMPLES, EXPLORE_FACTOR  # noqa: E402

settings.register_profile(
    "tier1", max_examples=BASE_EXAMPLES, derandomize=True, database=None
)
settings.register_profile(
    "explore",
    max_examples=BASE_EXAMPLES * EXPLORE_FACTOR,
    derandomize=False,
    database=None,
    deadline=None,
    print_blob=True,
)
# The default; ``--hypothesis-profile`` is applied after this module runs.
settings.load_profile("tier1")


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def collector_restored():
    """Whatever the test does to the cyclic collector's on/off state is
    undone afterwards."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def collector_off(collector_restored):
    """The cyclic collector is off for the test, with nothing left for it:
    whatever is reclaimed meanwhile was reclaimed by reference count."""
    # A system dropped at its horizon takes two passes: the first runs the
    # ``finally`` blocks of its suspended generators, the next frees it.
    for _ in range(4):
        if not gc.collect():
            break
    gc.disable()


@pytest.fixture
def collector_at_submit(monkeypatch):
    """``gc.isenabled()`` as read on entry to every
    ``Repartitioner.submit`` of the test, in call order."""
    from repro.core import Repartitioner

    seen = []
    submit = Repartitioner.submit

    def watched_submit(self, specs):
        seen.append(gc.isenabled())
        return submit(self, specs)

    monkeypatch.setattr(Repartitioner, "submit", watched_submit)
    return seen
