"""Golden report pins: the sha256 of a few default-seed reports.

Reports are byte-reproducible, and a refactor keeps every one of them
byte-identical.  These pins guard that in the suite: ``fibrum verify`` on
every catalog bundle, the sphere ``transport`` scenario, 20-sample
``theorem41`` tables on ``nonlinear-demo`` and ``sphere`` (whose gamma
divides by sin theta), ``verify-all`` on a ``tm-custom-christoffel`` with
degree-one coefficients (the default one is the zero connection), the
``transport`` scenario on ``nonlinear-demo`` and the ``geodesic`` scenario
on ``flat`` (whose segment, start element and geodesic start are drawn
from the seed), all at the default seed, and ``verify-all`` on ``sphere``
at seed 7.

The bytes do not depend on the CPU either.  numpy stores, samples and does
elementwise arithmetic; every contraction that reaches a report goes through
``fibrum.calculus`` (``dot``, ``mat_vec``), which sums in a fixed order.  A
numpy ``@`` would go to OpenBLAS, whose kernel, picked from the CPU at run
time, may fuse multiply-adds and round differently, so the pins are also
recomputed under OpenBLAS's SSE3 kernel.

A change that alters report bytes on purpose rewrites ``report_pins.json``
in the same change and says so in CHANGES.md.  From the root of a checkout:

    PYTHONPATH=src python tests/test_report_pins.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
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
    "run sphere theorem41 samples=20": {
        "bundle_name": "sphere", "scenario": "theorem41",
        "scenario_params": {"samples": 20}},
    "run tm-custom-christoffel verify-all degree-one": {
        "bundle_name": "tm-custom-christoffel", "scenario": "verify-all",
        "bundle_params": {"G_1_11": 0.2, "G_1_12": -0.15, "G_1_12_x2": 0.08,
                          "G_2_11_x1": -0.06, "G_2_21": 0.11,
                          "G_2_21_x1": 0.04, "G_2_22_x2": -0.09,
                          "G_1_22": 0.05}},
    "run nonlinear-demo transport": {"bundle_name": "nonlinear-demo",
                                     "scenario": "transport"},
    "run flat geodesic": {"bundle_name": "flat", "scenario": "geodesic"},
    "run sphere verify-all seed=7": {"bundle_name": "sphere",
                                     "scenario": "verify-all",
                                     "scenario_params": {"seed": 7}},
}


def report_sha256(name: str, work: Path) -> str:
    """Make the report of pin ``name`` in ``work``, at the default seed
    unless its config names one."""
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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernel names are x86-64 ones")
def test_pins_hold_under_sse3_blas_kernel(tmp_path):
    # Prescott (SSE3, no fused multiply-add) runs on every x86-64 CPU; a
    # kernel the CPU may lack is never forced
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env.pop("FIBRUM_SEED", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(PINS.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    code = ("import json, pathlib, sys\n"
            "from test_report_pins import RUNS, report_sha256\n"
            "print(json.dumps({name: report_sha256(name, "
            "pathlib.Path(sys.argv[1])) for name in RUNS}))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout) == json.loads(PINS.read_text())


if __name__ == "__main__":
    import tempfile
    os.environ.pop("FIBRUM_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: report_sha256(name, Path(tmp)) for name in RUNS}
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
