"""Every example runs to completion against the current API.

The examples are the only callers of ``AutoRepartitioner``, a custom
``Scheduler`` subclass and a hand-assembled ``Repartitioner``, so an API
change that no other test notices breaks them silently.
``compare_schedulers`` (five full cells, ~14 s) runs in CI's ``examples``
step instead.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", [
    "quickstart",
    "custom_scheduler",
    "auto_repartition_loop",
    "flash_crowd",
    "ziegler_nichols_tuning",
])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
