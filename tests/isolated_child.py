"""Run a snippet in a fresh interpreter that sees only this tree's ``src/``.

The child's environment is scrubbed to ``PYTHONPATH``, ``PATH`` and
``PYTHONHASHSEED=0``, so nothing the caller exported changes what it
imports or how it iterates a set.  A test runner started with
``PYTHONDONTWRITEBYTECODE=1`` (or ``-B``) passes ``-B`` on, so the child
leaves no ``__pycache__`` in ``src/`` either.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_isolated(snippet: str, *flags: str, timeout: float = 120) -> str:
    """``python [-B] *flags -c snippet``'s stripped stdout; it must exit 0."""
    if sys.dont_write_bytecode:
        flags = ("-B", *flags)
    result = subprocess.run(
        [sys.executable, *flags, "-c", snippet],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
             "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()
