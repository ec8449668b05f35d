#!/usr/bin/env python3
"""Strict-mypy gate over the determinism-critical core, with a baseline.

Runs ``mypy`` using the ``[tool.mypy]`` config in ``pyproject.toml``
(which pins the checked file set) and compares the errors against
``tools/mypy-baseline.txt``:

* errors in the baseline are tolerated (pre-existing debt),
* errors NOT in the baseline fail the gate (new debt),
* baseline entries that no longer fire are reported so the baseline can
  be burned down (warning only -- a fix should not break the build).

Baseline lines are normalised by stripping line/column numbers, so
unrelated edits that shift code around do not invalidate entries.

Usage::

    python tools/check_types.py            # gate (CI)
    python tools/check_types.py --update   # rewrite the baseline
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "mypy-baseline.txt"

#: ``path:line:`` or ``path:line:col:`` location prefixes.
_LOCATION_RE = re.compile(r":\d+(:\d+)?:")

#: Lines mypy emits that are not per-error diagnostics.
_NOISE_RE = re.compile(
    r"^(Found \d+ error|Success: no issues|.*: note: )"
)


def normalize(line: str) -> str | None:
    """A position-independent key for one mypy output line.

    Returns ``None`` for summary/note lines that should not be diffed.
    """
    line = line.strip()
    if not line or _NOISE_RE.match(line):
        return None
    return _LOCATION_RE.sub(":", line, count=1)


def normalize_output(text: str) -> list[str]:
    keys = (normalize(line) for line in text.splitlines())
    return sorted(key for key in keys if key is not None)


def diff_against_baseline(
    errors: list[str], baseline: list[str]
) -> tuple[list[str], list[str]]:
    """``(new, stale)``: errors not in baseline, entries no longer firing."""
    remaining = Counter(baseline)
    new: list[str] = []
    for error in errors:
        if remaining[error] > 0:
            remaining[error] -= 1
        else:
            new.append(error)
    stale = sorted(remaining.elements())
    return new, stale


def load_baseline() -> list[str]:
    if not BASELINE.exists():
        return []
    return [
        line.strip()
        for line in BASELINE.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def write_baseline(errors: list[str]) -> None:
    header = (
        "# mypy strict-mode debt tolerated by tools/check_types.py.\n"
        "# One normalised error per line (line/column stripped).\n"
        "# Burn entries down; never add new ones without a review.\n"
    )
    body = "".join(f"{error}\n" for error in errors)
    BASELINE.write_text(header + body, encoding="utf-8")


def run_mypy() -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite tools/mypy-baseline.txt from the current errors",
    )
    args = parser.parse_args(argv)

    have_mypy = (
        shutil.which("mypy") is not None
        or subprocess.run(
            [sys.executable, "-c", "import mypy"], capture_output=True
        ).returncode
        == 0
    )
    if not have_mypy:
        print(
            "check_types: mypy is not installed, so the strict gate cannot "
            "run; install it with `python -m pip install 'mypy>=1.8'`",
            file=sys.stderr,
        )
        return 2

    returncode, output = run_mypy()
    if returncode not in (0, 1):  # 2 = usage/config error: always fatal
        sys.stderr.write(output)
        print(f"check_types: mypy failed (exit {returncode})", file=sys.stderr)
        return returncode

    errors = normalize_output(output)
    if args.update:
        write_baseline(errors)
        print(f"check_types: wrote {len(errors)} entries to {BASELINE.name}")
        return 0

    new, stale = diff_against_baseline(errors, load_baseline())
    for entry in stale:
        print(f"check_types: stale baseline entry (fixed?): {entry}")
    if new:
        print(
            f"check_types: {len(new)} new strict-mypy error(s) "
            "not covered by the baseline:",
            file=sys.stderr,
        )
        for error in new:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(
        f"check_types: OK ({len(errors)} baselined, 0 new, "
        f"{len(stale)} stale)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
