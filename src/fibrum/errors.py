"""Typed errors raised by the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming mistakes.

Every config input is checked by one routine, ``_checked``, against a rule
table: the config's own keys (``config``), each catalog entry's bundle
parameters (``catalog.CATALOG``) and the scenario parameters that depend on
the built bundle (``scenarios.Subject``).
"""

import math


class FibrumError(Exception):
    """Base class for all library errors."""


class DomainError(FibrumError):
    """A point lies outside its chart box, or dimensions do not match."""


class ChartExitError(FibrumError):
    """A trajectory left the chart box during integration."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(f"{message} (exit time ~ {exit_time:.6g})")
        self.exit_time = exit_time


class StepBudgetError(FibrumError):
    """The integrator would need more steps than max_steps allows."""


class NonFiniteOutputError(FibrumError):
    """An evaluator produced NaN or infinity, signalling a singularity."""


class TooFewSamplesError(FibrumError):
    """A check has fewer sample points than it needs to measure anything;
    it fails rather than pass on an empty measurement."""


class SecondOrderUnavailableError(FibrumError):
    """An evaluator is not closed under nested derivative-carrying scalars,
    so second derivatives cannot be formed."""


class LinearityRequiredError(FibrumError):
    """An operation defined only for linear connections was called with a
    nonlinear one (compositions of covariant derivatives need the
    vertical-bundle identification that only vector bundles provide)."""


class TangentBundleRequiredError(FibrumError):
    """An operation requires the tangent-bundle configuration (fibre
    dimension equal to base dimension)."""


class ConfigError(FibrumError):
    """A scenario configuration failed to parse or validate."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{message} (field: {field})")
        self.field = field


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


# A rule is the pair (accepts(value), what it takes); a rule table maps
# each key of an object to its rule.  A JSON integer is required wherever
# an integer is: 2.0 is not a count.
_SEED = (lambda v: _integer(v) and v >= 0, "a non-negative integer")
_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
_REAL = (_real, "a finite real")
_POSITIVE = (lambda v: _real(v) and v > 0, "a positive finite real")
_VECTOR = (lambda v: isinstance(v, (list, tuple)) and all(map(_real, v)),
           "a list of finite reals")
_OBJECT = (lambda v: isinstance(v, dict), "an object")


def _one_of(names: list) -> tuple:
    return (lambda v: isinstance(v, str) and v in names, f"one of {names}")


def _checked(where: str, values: dict, rules: dict, **defaults) -> dict:
    """``values`` over ``defaults`` if ``rules`` lists every key and accepts
    every value, else a ConfigError naming ``where`` (an unknown key) or
    ``<where>.<key>`` (a rejected value; the bare key in ``config``).
    Nothing is coerced: a value is returned as given."""
    unknown = values.keys() - rules.keys()
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)} (allowed: "
                          f"{sorted(rules)})", field=where)
    values = {**defaults, **values}
    for key, value in values.items():
        accepts, what = rules[key]
        if not accepts(value):
            name = key if where == "config" else f"{where}.{key}"
            raise ConfigError(f"{name} must be {what}, got {value!r}",
                              field=name)
    return values
