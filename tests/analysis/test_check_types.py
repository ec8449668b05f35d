"""Unit tests for the mypy-gate plumbing in tools/check_types.py.

mypy itself is not a runtime dependency (and may be absent locally), so
these tests exercise the normalisation/diff logic on canned output --
the part that decides whether CI goes red.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_check_types():
    spec = importlib.util.spec_from_file_location(
        "check_types", REPO_ROOT / "tools" / "check_types.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_types", module)
    spec.loader.exec_module(module)
    return module


check_types = _load_check_types()

FAKE_OUTPUT = """\
src/repro/sim/environment.py:42:9: error: Missing type annotation  [var-annotated]
src/repro/routing/epoch.py:10: error: Returning Any  [no-any-return]
src/repro/routing/epoch.py:99: note: See https://mypy.readthedocs.io
Found 2 errors in 2 files (checked 5 source files)
"""


class TestNormalize:
    def test_strips_line_and_column(self) -> None:
        assert check_types.normalize(
            "src/a.py:42:9: error: boom  [code]"
        ) == "src/a.py: error: boom  [code]"
        assert check_types.normalize(
            "src/a.py:42: error: boom  [code]"
        ) == "src/a.py: error: boom  [code]"

    def test_drops_notes_summaries_and_blanks(self) -> None:
        assert check_types.normalize("") is None
        assert check_types.normalize("Found 2 errors in 2 files") is None
        assert check_types.normalize("Success: no issues found") is None
        assert check_types.normalize("src/a.py:9: note: hint") is None

    def test_normalize_output_sorts_and_filters(self) -> None:
        assert check_types.normalize_output(FAKE_OUTPUT) == [
            "src/repro/routing/epoch.py: error: Returning Any  "
            "[no-any-return]",
            "src/repro/sim/environment.py: error: Missing type annotation  "
            "[var-annotated]",
        ]


class TestDiff:
    def test_clean_run_against_empty_baseline(self) -> None:
        assert check_types.diff_against_baseline([], []) == ([], [])

    def test_baselined_errors_tolerated_new_ones_not(self) -> None:
        errors = ["a: error: old  [x]", "b: error: new  [y]"]
        new, stale = check_types.diff_against_baseline(
            errors, ["a: error: old  [x]"]
        )
        assert new == ["b: error: new  [y]"]
        assert stale == []

    def test_fixed_errors_reported_stale(self) -> None:
        new, stale = check_types.diff_against_baseline(
            [], ["a: error: gone  [x]"]
        )
        assert new == []
        assert stale == ["a: error: gone  [x]"]

    def test_duplicate_errors_need_duplicate_baseline_entries(self) -> None:
        errors = ["a: error: dup  [x]"] * 2
        new, _ = check_types.diff_against_baseline(
            errors, ["a: error: dup  [x]"]
        )
        assert new == ["a: error: dup  [x]"]


def test_checked_in_baseline_is_empty() -> None:
    """The strict core currently carries zero tolerated debt.

    If you are here because this failed: prefer fixing the new mypy
    error over adding the first baseline entry.
    """
    baseline = REPO_ROOT / "tools" / "mypy-baseline.txt"
    assert baseline.exists()
    entries = [
        line
        for line in baseline.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert entries == []


def test_gate_fails_loudly_when_mypy_missing(monkeypatch, capsys) -> None:
    monkeypatch.setattr(check_types.shutil, "which", lambda _: None)

    class _Proc:
        returncode = 1

    def fake_run(cmd, **kwargs):
        assert "import mypy" in cmd[-1]
        return _Proc()

    monkeypatch.setattr(check_types.subprocess, "run", fake_run)
    assert check_types.main([]) == 2
    assert "pip install" in capsys.readouterr().err
