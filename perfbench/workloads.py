"""The three benchmark workloads: inputs made from the seed, and the pinned
verdicts that every CLI invocation must reproduce.

A workload *pass* is a fixed list of ``fibrum`` CLI invocations, run one at
a time (closed loop, one client).  Each invocation writes its canonical
report into the work directory; the report bytes are the output that is
checked and hashed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-sphere", "theorem41-table", "verify-catalog")

# Samples per theorem41 table: about 5 s per pass on one 2-core sandbox.
THEOREM41_SAMPLES = 600

# ``verify``/``run`` exit 1 on all three workloads: the route-equality row is
# red by design (see the README and demos/02 of fibrum).
EXPECTED_EXIT = 1
RED_BY_DESIGN = {"curvature_routes_equality"}
RED_ON_FLAT = {"flatness_via_covariant"}

# verify-all on nonlinear-demo draws random transport segments on which the
# cubic coefficient y + y^3 can carry the fibre element out of the chart box
# (12 of seeds 0-59).  The CLI then reports the row as failed with a
# ChartExitError note, which is its specified behaviour; the benchmark
# accepts exactly that note on exactly these rows and counts such rows.
CHART_EXIT_ROWS = {("nonlinear-demo", "transport_roundtrip"),
                   ("nonlinear-demo", "transport_covariantly_constant"),
                   ("nonlinear-demo", "flow_group_law")}


@dataclass(frozen=True)
class Invocation:
    name: str          # label in hashes and messages, e.g. "sphere"
    bundle: str
    argv: tuple        # arguments of fibrum.cli.main
    report: Path       # where the invocation writes its report
    setup_item: str    # argument of setup_probe.py: config path or verify:B
    table_rows: int = 0


def christoffels(seed: int) -> dict:
    """Small seeded Christoffels for tm-custom-christoffel (m = 2): every
    constant G^a_bc in [-0.25, 0.25] and one degree-one slope per (a, b, c)
    in [-0.1, 0.1]."""
    rng = random.Random(seed)
    params = {}
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                params[f"G_{a}_{b}{c}"] = round(rng.uniform(-0.25, 0.25), 6)
                k = rng.choice((1, 2))
                params[f"G_{a}_{b}{c}_x{k}"] = round(rng.uniform(-0.1, 0.1), 6)
    return params


def invocations(workload: str, seed: int, work: Path) -> list[Invocation]:
    """The CLI invocations of one pass; config files are written to
    ``work`` here, before any timing."""
    if workload == "verify-sphere":
        out = work / "verify-sphere.sphere.json"
        return [Invocation("sphere", "sphere",
                           ("verify", "sphere", "--seed", str(seed),
                            "--out", str(out), "--quiet"), out,
                           "verify:sphere")]
    if workload == "theorem41-table":
        bundles = ("sphere", "nonlinear-demo")
        scenario, extra = "theorem41", {"samples": THEOREM41_SAMPLES}
    elif workload == "verify-catalog":
        bundles = ("flat", "nonlinear-demo", "tm-custom-christoffel")
        scenario, extra = "verify-all", {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    result = []
    for bundle in bundles:
        out = work / f"{workload}.{bundle}.json"
        config = {"bundle_name": bundle, "scenario": scenario,
                  "scenario_params": {"seed": seed, **extra},
                  "output_path": str(out)}
        if bundle == "tm-custom-christoffel":
            config["bundle_params"] = christoffels(seed)
        path = work / f"{workload}.{bundle}.config.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        result.append(Invocation(bundle, bundle,
                                 ("run", str(path), "--quiet"), out,
                                 str(path), extra.get("samples", 0)))
    return result


def expected_pass(bundle: str, check: str) -> bool:
    if check in RED_BY_DESIGN:
        return False
    return not (bundle == "flat" and check in RED_ON_FLAT)


def check_report(inv: Invocation, code: int, tree: dict) -> list[str]:
    """Differences between one invocation's result and the pinned
    expectation; empty when the invocation is correct."""
    problems = []
    if code != EXPECTED_EXIT:
        problems.append(f"exit code {code}, expected {EXPECTED_EXIT}")
    rows = tree.get("checks", [])
    if not rows:
        problems.append("report has no check rows")
    for row in rows:
        name, passed = row["check_name"], row["pass"]
        want = expected_pass(inv.bundle, name)
        if passed == want:
            continue
        if (not passed and (inv.bundle, name) in CHART_EXIT_ROWS
                and row["note"].startswith("ChartExitError:")):
            continue
        problems.append(f"{name}: pass={passed}, expected {want}")
    if tree.get("overall_pass") is not False:
        problems.append("overall_pass is not false")
    if inv.table_rows:
        problems.extend(_check_table(tree, inv.table_rows))
    return problems


def _check_table(tree: dict, n_rows: int) -> list[str]:
    """Re-derive the theorem41 table's residual column and the route
    equality row from the table's own route values."""
    table = tree.get("table") or []
    if len(table) != n_rows:
        return [f"table has {len(table)} rows, expected {n_rows}"]
    worst = 0.0
    for k, row in enumerate(table):
        resid = max(abs(c - l) for c, l in zip(row["via_covariant"],
                                                row["via_lifts"]))
        if resid != row["residual"]:
            return [f"table row {k}: residual {row['residual']!r} is not "
                    f"max|via_covariant - via_lifts| = {resid!r}"]
        worst = max(worst, resid)
    routes = [r for r in tree["checks"]
              if r["check_name"] == "curvature_routes_equality"]
    if not routes or routes[0]["max_residual"] != worst:
        return ["curvature_routes_equality does not equal the table's "
                "largest residual"]
    return []


def chart_exit_rows(tree: dict) -> int:
    return sum(1 for row in tree.get("checks", []) if not row["pass"]
               and row["note"].startswith("ChartExitError:"))


def worst_tolerance_use(bundle: str, tree: dict) -> float:
    """Largest max_residual / tolerance over rows pinned to pass that have a
    positive tolerance."""
    worst = 0.0
    for row in tree.get("checks", []):
        tol = row["tolerance"]
        if tol and tol > 0 and row["pass"] and expected_pass(
                bundle, row["check_name"]):
            worst = max(worst, row["max_residual"] / tol)
    return worst
