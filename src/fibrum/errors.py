"""Typed errors raised by the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming mistakes.
"""


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
