"""Byte-identity sweep: one sha256 per bundle x scenario x seed.

Every scenario (verify-all, theorem41, transport, geodesic, holonomy and
curvature-table) runs on every catalog bundle (flat, sphere,
nonlinear-demo and tm-custom-christoffel) at seeds 1, 42 and 7: 72
reports, each made by ``fibrum run`` in-process (``fibrum.cli.main``)
from a config that names its seed.  ``tm-custom-christoffel`` gets the
benchmark's small seeded coefficients, ``perfbench/workloads.christoffels(
seed)``, because the default one is the zero connection.  A refactor keeps
every line of the output the same: the hash of the report, fibrum's exit
code and the run's label.

From the root of a checkout:

    python tests/report_sweep.py                  # this checkout's sweep
    python tests/report_sweep.py --compare OTHER  # against checkout OTHER

``--compare`` runs the sweep of each checkout in an interpreter of its own,
each importing fibrum from its own ``src/``, from the same configs (the
coefficients come from this checkout's ``perfbench/``), prints the lines
that differ and exits 1 if any does.  A sweep takes a few seconds.  The
file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLES = ("flat", "sphere", "nonlinear-demo", "tm-custom-christoffel")
SCENARIOS = ("verify-all", "theorem41", "transport", "geodesic", "holonomy",
             "curvature-table")
SEEDS = (1, 42, 7)


def christoffels(seed: int) -> dict:
    """The benchmark's seeded coefficients, from this checkout's
    ``perfbench/workloads.py`` imported by path."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # registered before it runs: its dataclass looks its module up
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module.christoffels(seed)


def configs():
    """(label, config) of every run of the sweep, in output order."""
    for seed in SEEDS:
        for bundle in BUNDLES:
            for scenario in SCENARIOS:
                config = {"bundle_name": bundle, "scenario": scenario,
                          "scenario_params": {"seed": seed}}
                if bundle == "tm-custom-christoffel":
                    config["bundle_params"] = christoffels(seed)
                yield f"{bundle} {scenario} seed={seed}", config


def sweep() -> list:
    """One line per run: the report's sha256, the exit code, the label."""
    from fibrum.cli import main
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, config in configs():
            path, out = work / "config.json", work / "report.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out.unlink(missing_ok=True)
            code = main(["run", str(path), "--quiet", "--out", str(out)])
            digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                      if out.exists() else "no-report")
            lines.append(f"{digest}  {code}  {label}")
    return lines


def tree_sweep(checkout: Path) -> list:
    """The sweep of ``checkout``, run in an interpreter of its own."""
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(checkout / "src")],
        capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="import fibrum from this directory")
    parser.add_argument("--compare", type=Path, metavar="OTHER",
                        help="compare this checkout's sweep with OTHER's")
    args = parser.parse_args(argv)
    if args.compare is None:
        sys.path.insert(0, str(args.src.resolve()))
        print("\n".join(sweep()))
        return 0
    here, other = tree_sweep(ROOT), tree_sweep(args.compare.resolve())
    differ = [(a, b) for a, b in zip(here, other) if a != b]
    for a, b in differ:
        print(f"this:  {a}\nother: {b}")
    print(f"{len(here) - len(differ)} of {len(here)} reports equal")
    return 1 if differ or len(here) != len(other) else 0


if __name__ == "__main__":
    sys.exit(main())
