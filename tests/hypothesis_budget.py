"""How many examples a property draws, under either hypothesis profile.

``tests/conftest.py`` registers two profiles.  ``tier1``, the default,
is deterministic: each test derives its draws from its own source, and
no example database carries draws from one run into the next, so two
runs of one tree draw the same examples.  ``explore``
(``--hypothesis-profile=explore``) draws at random, ``EXPLORE_FACTOR``
times as many; ``--hypothesis-seed`` replays such a run.

An explicit ``@settings(max_examples=...)`` overrides whichever profile
is loaded, so a test that sets its own count asks :func:`examples` for
it and the explore lane still scales it.
"""

from hypothesis import settings

#: ``max_examples`` of the ``tier1`` profile (hypothesis's own default).
BASE_EXAMPLES = 100
#: How many times more examples the ``explore`` profile draws.
EXPLORE_FACTOR = 10


def examples(n: int) -> int:
    """``n`` under ``tier1``, scaled with the loaded profile's count."""
    return n * settings.default.max_examples // BASE_EXAMPLES
