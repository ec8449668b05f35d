"""Framework behaviour: suppressions, baselines, CLI, registry."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    REGISTRY,
    Finding,
    all_rules,
    analyze_sources,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.cli import collect_files, main

SIM_VIOLATION = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)
SIM_PATH = "src/repro/sim/stamp.py"


class TestRegistry:
    def test_all_six_rules_registered(self) -> None:
        codes = {rule.code for rule in all_rules()}
        assert codes == {
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR007",
        }

    def test_rules_carry_descriptions(self) -> None:
        for rule in all_rules():
            assert rule.name
            assert len(rule.description) > 40

    def test_select_unknown_code_raises(self) -> None:
        with pytest.raises(ValueError, match="RPR999"):
            analyze_sources({SIM_PATH: SIM_VIOLATION}, select=["RPR999"])

    def test_select_restricts_rules(self) -> None:
        result = analyze_sources(
            {SIM_PATH: SIM_VIOLATION}, select=["RPR004"]
        )
        assert result.findings == []
        result = analyze_sources(
            {SIM_PATH: SIM_VIOLATION}, select=["RPR001"]
        )
        assert [f.code for f in result.findings] == ["RPR001"]
        assert REGISTRY["RPR001"].code == "RPR001"

    @pytest.mark.parametrize(
        ("path", "flagged"),
        [
            ("src/repro/locking/deadlock.py", True),
            ("src/repro/core/session.py", True),
            ("src/repro/core/monitor.py", False),
        ],
    )
    def test_rpr001_scope_covers_locking_and_session(
        self, path: str, flagged: bool
    ) -> None:
        result = analyze_sources({path: SIM_VIOLATION}, select=["RPR001"])
        assert bool(result.findings) is flagged


class TestSuppressions:
    def test_justified_suppression_applies(self) -> None:
        source = SIM_VIOLATION.replace(
            "time.time()",
            "time.time()  # repro-lint: disable=RPR001 -- boot banner",
        )
        result = analyze_sources({SIM_PATH: source})
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["RPR001"]

    def test_suppression_on_other_line_does_not_apply(self) -> None:
        source = (
            "import time\n"
            "# repro-lint: disable=RPR001 -- wrong line\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        result = analyze_sources({SIM_PATH: source})
        assert [f.code for f in result.findings] == ["RPR001"]

    def test_unjustified_suppression_is_flagged_and_ignored(self) -> None:
        source = SIM_VIOLATION.replace(
            "time.time()", "time.time()  # repro-lint: disable=RPR001"
        )
        result = analyze_sources({SIM_PATH: source})
        assert sorted(f.code for f in result.findings) == [
            "RPR000",
            "RPR001",
        ]

    def test_rpr000_cannot_be_suppressed(self) -> None:
        source = (
            "x = 1  # repro-lint: disable=RPR000 -- trying to gag the meta\n"
        )
        result = analyze_sources({"src/repro/sim/x.py": source})
        assert [f.code for f in result.findings] == ["RPR000"]

    def test_directive_in_docstring_is_not_a_directive(self) -> None:
        source = (
            '"""Docs may mention repro-lint: disable=RPR001 freely."""\n'
            "x = 1\n"
        )
        result = analyze_sources({"src/repro/sim/doc.py": source})
        assert result.findings == []

    def test_syntax_error_reports_rpr000(self) -> None:
        result = analyze_sources({"src/repro/sim/broken.py": "def f(:\n"})
        assert [f.code for f in result.findings] == ["RPR000"]
        assert "does not parse" in result.findings[0].message


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path: Path) -> None:
        findings = [
            Finding("src/a.py", 3, 1, "RPR001", "msg one"),
            Finding("src/b.py", 7, 1, "RPR005", "msg two"),
        ]
        baseline_file = tmp_path / "baseline.json"
        write_baseline(findings, baseline_file)
        baseline = load_baseline(baseline_file)
        # Same findings at different lines still match (burn-down is
        # keyed on path+code+message, not position).
        moved = [
            Finding("src/a.py", 30, 1, "RPR001", "msg one"),
            Finding("src/c.py", 1, 1, "RPR001", "brand new"),
        ]
        new, matched, stale = split_by_baseline(moved, baseline)
        assert [f.message for f in new] == ["brand new"]
        assert [f.message for f in matched] == ["msg one"]
        assert sum(stale.values()) == 1  # msg two no longer fires

    def test_rpr000_never_baselined(self, tmp_path: Path) -> None:
        meta = Finding("src/a.py", 1, 1, "RPR000", "bad directive")
        baseline_file = tmp_path / "baseline.json"
        write_baseline([meta], baseline_file)
        assert load_baseline(baseline_file) == {}
        new, matched, _ = split_by_baseline(
            [meta], load_baseline(baseline_file)
        )
        assert new == [meta]
        assert matched == []

    def test_missing_baseline_file_is_empty(self, tmp_path: Path) -> None:
        assert load_baseline(tmp_path / "absent.json") == {}


@pytest.fixture
def violation_tree(tmp_path: Path) -> Path:
    """A mini repo with one sim-path violation at the usual layout."""
    sim_dir = tmp_path / "src" / "repro" / "sim"
    sim_dir.mkdir(parents=True)
    (sim_dir / "stamp.py").write_text(SIM_VIOLATION, encoding="utf-8")
    return tmp_path


class TestCli:
    def test_exit_zero_on_clean_tree(
        self, tmp_path: Path, monkeypatch, capsys
    ) -> None:
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0

    def test_exit_one_and_ruff_style_line(
        self, violation_tree: Path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(violation_tree)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("src/repro/sim/stamp.py:4:12: RPR001 ")

    def test_json_format(
        self, violation_tree: Path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(violation_tree)
        assert main(["--format=json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        [finding] = payload["findings"]
        assert finding["code"] == "RPR001"
        assert finding["path"] == "src/repro/sim/stamp.py"
        assert finding["line"] == 4

    def test_baseline_burns_down(
        self, violation_tree: Path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(violation_tree)
        assert (
            main(["--baseline", "baseline.json", "--write-baseline", "src"])
            == 0
        )
        # With the baseline in place the same tree is green...
        assert main(["--baseline", "baseline.json", "src"]) == 0
        # ...but a fresh violation still fails.
        extra = violation_tree / "src" / "repro" / "sim" / "extra.py"
        extra.write_text(
            "import os\n\ndef salt():\n    return os.urandom(4)\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["--baseline", "baseline.json", "src"]) == 1
        out = capsys.readouterr().out
        assert "extra.py" in out
        assert "stamp.py" not in out

    def test_stale_baseline_noted(
        self, violation_tree: Path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(violation_tree)
        assert (
            main(["--baseline", "baseline.json", "--write-baseline", "src"])
            == 0
        )
        stamp = violation_tree / "src" / "repro" / "sim" / "stamp.py"
        stamp.write_text("x = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["--baseline", "baseline.json", "src"]) == 0
        assert "stale baseline" in capsys.readouterr().err

    def test_write_baseline_requires_baseline_path(self, capsys) -> None:
        assert main(["--write-baseline", "src"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        assert main(["does-not-exist"]) == 2

    def test_no_paths_is_usage_error(self) -> None:
        assert main([]) == 2

    def test_list_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR007"):
            assert code in out

    def test_fixture_directories_are_never_scanned(
        self, tmp_path: Path, monkeypatch
    ) -> None:
        bad = tmp_path / "tests" / "x" / "fixtures"
        bad.mkdir(parents=True)
        (bad / "violation.py").write_text(
            "import time\nT = time.time()\n", encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        assert collect_files(["tests"]) == []
        assert main(["tests"]) == 0
