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
from .errors import ConfigError
from .scenarios import CHECKS

DEFAULT_STEP = 1e-3
DEFAULT_MAX_STEPS = 10_000_000
DEFAULT_SEED = 42


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> bool:
    """A finite real: an int or float (not a bool) that fits a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_SEED = (lambda v: _integer(v) and v >= 0, "a non-negative integer")
_SAMPLES = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
_REAL = (_real, "a finite real")
_POSITIVE = (lambda v: _real(v) and v > 0, "a positive finite real")
_VECTOR = (lambda v: isinstance(v, (list, tuple)) and all(map(_real, v)),
           "a list of finite reals")

# The scenarios, in the order a config error lists them, each with its
# parameter schema: name -> (accepts(value), what it takes).  Vector
# lengths and the latitude's range depend on the bundle and are checked
# where it is built (``scenarios.Subject``).
_SCENARIO_PARAMS: dict[str, dict[str, tuple]] = {
    "verify-all": {"seed": _SEED},
    "theorem41": {"seed": _SEED, "samples": _SAMPLES},
    "transport": {"seed": _SEED, "latitude": _REAL, "y0": _VECTOR},
    "geodesic": {"seed": _SEED, "x0": _VECTOR, "v0": _VECTOR, "T": _REAL},
    "holonomy": {"seed": _SEED, "latitude": _REAL, "radius": _POSITIVE,
                 "y0": _VECTOR},
    "curvature-table": {"seed": _SEED, "samples": _SAMPLES},
}


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


def _step(value, field: str) -> float:
    """An integrator step: a finite positive real, else a ConfigError."""
    try:
        step = float(value)
    except (TypeError, ValueError):
        step = math.nan
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"{field} must be a finite positive real, got "
                          f"{value!r}", field=field)
    return step


def load_config(source, seed_override: Optional[int] = None,
                step_override: Optional[float] = None,
                out_override: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a config from a path, '-' (stdin), or a dict."""
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

    allowed = {"bundle_name", "bundle_params", "scenario", "scenario_params",
               "integrator", "tolerances", "output_path"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}",
                          field=sorted(unknown)[0])

    bundle_name = raw.get("bundle_name")
    if not isinstance(bundle_name, str) or bundle_name not in CATALOG:
        raise ConfigError(
            f"bundle_name must be one of {sorted(CATALOG)}, got "
            f"{bundle_name!r}", field="bundle_name")

    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in _SCENARIO_PARAMS:
        raise ConfigError(
            f"scenario must be one of {list(_SCENARIO_PARAMS)}, got "
            f"{scenario!r}", field="scenario")

    # Each value is checked against the catalog entry's schema when the
    # bundle is built (``catalog.build_connection``).
    bundle_params = raw.get("bundle_params", {})
    if not isinstance(bundle_params, dict):
        raise ConfigError("bundle_params must be an object",
                          field="bundle_params")

    scenario_params = raw.get("scenario_params", {})
    if not isinstance(scenario_params, dict):
        raise ConfigError("scenario_params must be an object",
                          field="scenario_params")
    schema = _SCENARIO_PARAMS[scenario]
    unknown = set(scenario_params) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown scenario_params {sorted(unknown)} for '{scenario}' "
            f"(allowed: {sorted(schema)})", field="scenario_params")
    for name, value in scenario_params.items():
        accepts, what = schema[name]
        if not accepts(value):
            raise ConfigError(f"scenario_params.{name} must be {what}, got "
                              f"{value!r}", field=f"scenario_params.{name}")

    integrator = raw.get("integrator", {})
    if not isinstance(integrator, dict):
        raise ConfigError("integrator must be an object", field="integrator")
    unknown = set(integrator) - {"step", "max_steps"}
    if unknown:
        raise ConfigError(f"unknown integrator keys {sorted(unknown)}",
                          field="integrator")
    step = _step(integrator.get("step", DEFAULT_STEP), "integrator.step")
    max_steps = integrator.get("max_steps", DEFAULT_MAX_STEPS)
    if not _integer(max_steps) or max_steps < 1:
        raise ConfigError("integrator.max_steps must be a positive integer",
                          field="integrator.max_steps")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object", field="tolerances")
    for name, val in tolerances.items():
        if name not in CHECKS:
            raise ConfigError(f"unknown tolerance name '{name}'",
                              field="tolerances")
        if not _real(val):
            raise ConfigError(f"tolerances.{name} must be a finite real, "
                              f"got {val!r}", field=f"tolerances.{name}")

    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string", field="output_path")

    seed = scenario_params.get("seed", DEFAULT_SEED)
    if seed_override is not None:
        seed = int(seed_override)
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got "
                              f"{seed}", field="seed")
    if step_override is not None:
        step = _step(step_override, "step")
    if out_override is not None:
        output_path = out_override
    # checked before anything runs, so a bad path does not cost a scenario
    if output_path and (Path(output_path).is_dir()
                        or not Path(output_path).parent.is_dir()):
        name = "out" if out_override is not None else "output_path"
        raise ConfigError(f"{name} must name a file in an existing directory, "
                          f"got {output_path!r}", field=name)

    return ScenarioConfig(
        bundle_name=bundle_name,
        scenario=scenario,
        bundle_params=dict(bundle_params),
        scenario_params=dict(scenario_params),
        step=step,
        max_steps=max_steps,
        tolerances=dict(tolerances),
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
