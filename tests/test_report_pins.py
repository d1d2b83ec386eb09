"""Golden report pins: the sha256 of a few default-seed reports.

Reports are byte-reproducible, and a refactor keeps every one of them
byte-identical.  These pins guard that in the suite: ``fibrum verify`` on
every catalog bundle, the sphere ``transport`` scenario and a 20-sample
``theorem41`` table on ``nonlinear-demo``, all at the default seed.

A change that alters report bytes on purpose rewrites ``report_pins.json``
in the same change and says so in CHANGES.md.  From the root of a checkout:

    PYTHONPATH=src python tests/test_report_pins.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from fibrum.cli import main

PINS = Path(__file__).with_name("report_pins.json")

# pin name -> the `fibrum verify` bundle, or the config of a `fibrum run`
RUNS = {
    "verify flat": "flat",
    "verify sphere": "sphere",
    "verify nonlinear-demo": "nonlinear-demo",
    "verify tm-custom-christoffel": "tm-custom-christoffel",
    "run sphere transport": {"bundle_name": "sphere",
                             "scenario": "transport"},
    "run nonlinear-demo theorem41 samples=20": {
        "bundle_name": "nonlinear-demo", "scenario": "theorem41",
        "scenario_params": {"samples": 20}},
}


def report_sha256(name: str, work: Path) -> str:
    """Make the report of pin ``name`` in ``work`` at the default seed."""
    out = work / "report.json"
    spec = RUNS[name]
    if isinstance(spec, str):
        argv = ["verify", spec]
    else:
        config = work / "config.json"
        config.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["run", str(config)]
    if main(argv + ["--quiet", "--out", str(out)]) not in (0, 1):
        raise RuntimeError(f"{name}: fibrum exited with an error")
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_pin(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FIBRUM_SEED", raising=False)
    assert report_sha256(name, tmp_path) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    import tempfile
    os.environ.pop("FIBRUM_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: report_sha256(name, Path(tmp)) for name in RUNS}
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
