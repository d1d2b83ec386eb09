"""Every demo script runs to the end: a removed or renamed export that a
demo still imports fails here, not in a reader's terminal."""

import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
                .glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # conftest puts src/ on the child interpreter's PYTHONPATH
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
