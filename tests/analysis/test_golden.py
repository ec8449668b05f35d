"""Golden-file corpus: every rule, positive and negative fixtures.

Each fixture (file, or directory for cross-file project rules) pairs
with a golden file holding the exact expected findings; an empty golden
file asserts the fixture is clean.  See ``harness.py`` for the
regeneration workflow.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from .harness import FIXTURES, analyze_fixture, check_golden, expected_path


def _fixture_cases() -> list[Path]:
    cases = [p for p in sorted(FIXTURES.glob("*.py"))]
    cases.extend(p for p in sorted(FIXTURES.iterdir()) if p.is_dir())
    return cases


CASES = _fixture_cases()


def test_corpus_is_nonempty() -> None:
    assert len(CASES) >= 10


def test_every_rule_has_fixture_coverage() -> None:
    """All six RPR rules appear in at least one golden file."""
    covered = set()
    for case in CASES:
        golden = expected_path(case)
        if golden.exists():
            for line in golden.read_text().splitlines():
                for code in ("RPR00%d" % i for i in range(8)):
                    if f" {code} " in line:
                        covered.add(code)
    assert {
        "RPR000",
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR007",
    } <= covered


@pytest.mark.parametrize("case", CASES, ids=lambda p: p.name)
def test_golden(case: Path) -> None:
    check_golden(case)


def test_suppressed_findings_are_counted_not_dropped() -> None:
    result = analyze_fixture(FIXTURES / "rpr001_suppressed.py")
    assert result.findings == []
    assert len(result.suppressed) == 1
    assert result.suppressed[0].code == "RPR001"


def test_clean_fixtures_have_no_suppressions_in_play() -> None:
    result = analyze_fixture(FIXTURES / "rpr001_clean.py")
    assert result.findings == []
    assert result.suppressed == []
