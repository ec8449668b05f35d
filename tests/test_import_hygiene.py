"""What importing the experiment surface may not drag in.

Every worker process and every benchmark execution pays for
``import repro.experiments`` before its first event; the numeric and
graph libraries are needed by one optional planner and by nothing a
standard cell runs, so they must load on first use, not on import.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("networkx", "numpy", "scipy")

_SNIPPET = """
import sys
import repro.experiments, repro.metrics.report
print(",".join(m for m in {heavy!r} if m in sys.modules))
"""


def test_experiment_imports_leave_heavy_libraries_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", _SNIPPET.format(heavy=HEAVY)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", (
        f"import repro.experiments loaded {result.stdout.strip()}"
    )
