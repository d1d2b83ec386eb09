"""Every demo script runs to the end and prints the pinned bytes.

A removed or renamed export that a demo still imports fails here, not in a
reader's terminal.  The sha256 of each demo's standard output is pinned in
``demo_pins.json``, like the report pins: demo 02 is the one output that
prints the covariant-derivative composition route.  A change that alters
a demo's output on purpose rewrites the file in the same change and says so
in CHANGES.md.  From the root of a checkout:

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PINS = Path(__file__).with_name("demo_pins.json")
_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
                .glob("*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    # conftest puts src/ on the child interpreter's PYTHONPATH under pytest
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          timeout=120)


def test_demos_found():
    assert len(_DEMOS) >= 4
    assert sorted(json.loads(PINS.read_text())) == [d.name for d in _DEMOS]


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    out = run_demo(demo)
    assert out.returncode == 0, out.stderr.decode()
    assert b"Traceback" not in out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() \
        == json.loads(PINS.read_text())[demo.name]


if __name__ == "__main__":
    pins = {}
    for demo in _DEMOS:
        out = run_demo(demo)
        if out.returncode != 0:
            raise SystemExit(f"{demo.name} failed:\n{out.stderr.decode()}")
        pins[demo.name] = hashlib.sha256(out.stdout).hexdigest()
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
