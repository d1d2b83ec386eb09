"""Scenario configuration ingestion and report emission.

The repo-wide structured-text notation is JSON (UTF-8): configs are JSON
objects, reports are JSON trees written by a canonical serializer with
stable key order and reals printed with 17 significant digits, so equal
runs produce byte-identical files.  Unknown keys are rejected.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .catalog import CATALOG
from .errors import (_COUNT, _OBJECT, _POSITIVE, _REAL, _SEED, _VECTOR,
                     ConfigError, _checked, _one_of)
from .scenarios import CHECKS

DEFAULT_STEP = 1e-3
DEFAULT_MAX_STEPS = 10_000_000
DEFAULT_SEED = 42


# The scenarios, in the order a config error lists them, each with the
# rule table (``errors._checked``) of its parameters; vector lengths, the
# latitude's range and where a radius applies depend on the bundle
# (``scenarios.Subject`` checks them).
_SCENARIO_PARAMS: dict[str, dict[str, tuple]] = {
    "verify-all": {"seed": _SEED},
    "theorem41": {"seed": _SEED, "samples": _COUNT},
    "transport": {"seed": _SEED, "latitude": _REAL, "y0": _VECTOR},
    "geodesic": {"seed": _SEED, "x0": _VECTOR, "v0": _VECTOR, "T": _REAL},
    "holonomy": {"seed": _SEED, "latitude": _REAL, "radius": _POSITIVE,
                 "y0": _VECTOR},
    "curvature-table": {"seed": _SEED, "samples": _COUNT},
}
# The config's own keys; ``catalog.build_connection`` checks
# ``bundle_params`` against the catalog entry's rule table.
_CONFIG = {
    "bundle_name": _one_of(sorted(CATALOG)),
    "bundle_params": _OBJECT,
    "scenario": _one_of(list(_SCENARIO_PARAMS)),
    "scenario_params": _OBJECT,
    "integrator": _OBJECT,
    "tolerances": _OBJECT,
    "output_path": (lambda v: v is None or isinstance(v, str),
                    "a string or null"),
}
_INTEGRATOR = {"step": _POSITIVE, "max_steps": _COUNT}
_TOLERANCES = dict.fromkeys(CHECKS, _REAL)  # a negative one fails its row
_OVERRIDES = {"seed": _SEED, "step": _POSITIVE}  # --seed/FIBRUM_SEED, --step


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration with defaults applied."""

    bundle_name: str
    scenario: str
    bundle_params: dict = field(default_factory=dict)
    scenario_params: dict = field(default_factory=dict)
    step: float = DEFAULT_STEP
    max_steps: int = DEFAULT_MAX_STEPS
    tolerances: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    seed: int = DEFAULT_SEED

    def echo(self) -> dict:
        return {
            "bundle_name": self.bundle_name,
            "bundle_params": dict(self.bundle_params),
            "scenario": self.scenario,
            "scenario_params": dict(self.scenario_params),
        }


def load_config(source, seed_override: Optional[int] = None,
                step_override: Optional[float] = None,
                out_override: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a config from a path, '-' (stdin), or a dict.

    Each value and override is checked, with no coercion, by ``_checked``
    against its rule table; the report path is checked too, before any run.
    """
    if isinstance(source, dict):
        raw = source
    else:
        try:
            if str(source) == "-":
                import sys
                text = sys.stdin.buffer.read().decode("utf-8")
            else:
                text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {str(source)!r}: {exc}",
                              field="config") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    raw = _checked("config", raw, _CONFIG, bundle_name=None, scenario=None,
                   bundle_params={}, scenario_params={}, integrator={},
                   tolerances={}, output_path=None)
    scenario_params = _checked("scenario_params", raw["scenario_params"],
                               _SCENARIO_PARAMS[raw["scenario"]])
    integrator = _checked("integrator", raw["integrator"], _INTEGRATOR,
                          step=DEFAULT_STEP, max_steps=DEFAULT_MAX_STEPS)
    tolerances = _checked("tolerances", raw["tolerances"], _TOLERANCES)
    seed = (scenario_params.get("seed", DEFAULT_SEED) if seed_override is None
            else seed_override)
    step = integrator["step"] if step_override is None else step_override
    _checked("config", {"seed": seed, "step": step}, _OVERRIDES)
    output_path = (raw["output_path"] if out_override is None
                   else out_override)
    # checked before anything runs, so a bad path does not cost a scenario
    if output_path and (Path(output_path).is_dir()
                        or not Path(output_path).parent.is_dir()):
        name = "out" if out_override is not None else "output_path"
        raise ConfigError(f"{name} must name a file in an existing directory, "
                          f"got {output_path!r}", field=name)

    return ScenarioConfig(
        bundle_name=raw["bundle_name"], scenario=raw["scenario"],
        bundle_params=dict(raw["bundle_params"]),
        scenario_params=scenario_params,
        step=float(step),
        max_steps=integrator["max_steps"],
        tolerances=tolerances,
        output_path=output_path,
        seed=seed,
    )


# -- canonical report serialization -------------------------------------------

def _format_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    return "null"  # JSON has no non-finite reals; the note says why


@functools.lru_cache(maxsize=1024)
def _key_text(key: str) -> str:
    """The text of a dict key and its separator; report keys repeat per
    row, so each is escaped once."""
    return json.dumps(key) + ": "


def canonical_text(tree, indent: int = 0) -> str:
    """Serialize to JSON text with insertion order and 17-digit reals."""
    if type(tree) is float:
        return _format_float(tree)
    if isinstance(tree, dict):
        if not tree:
            return "{}"
        inner = "\n" + "  " * (indent + 1)
        return ("{" + inner + ("," + inner).join([
            _key_text(str(k)) + canonical_text(v, indent + 1)
            for k, v in tree.items()]) + "\n" + "  " * indent + "}")
    if isinstance(tree, (list, tuple)):
        if not tree:
            return "[]"
        inner = "\n" + "  " * (indent + 1)
        return ("[" + inner + ("," + inner).join([
            canonical_text(v, indent + 1) for v in tree])
            + "\n" + "  " * indent + "]")
    if isinstance(tree, bool):
        return "true" if tree else "false"
    if tree is None:
        return "null"
    if isinstance(tree, int):
        return str(tree)
    if isinstance(tree, float):
        return _format_float(tree)
    return json.dumps(str(tree))


def emit_report(report, path) -> None:
    """Write a report (object with ``to_tree`` or a plain tree) to ``path``."""
    tree = report.to_tree() if hasattr(report, "to_tree") else report
    text = canonical_text(tree) + "\n"
    Path(path).write_text(text, encoding="utf-8")
