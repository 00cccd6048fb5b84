"""Exception types shared across the package."""


class L0LandscapeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(L0LandscapeError, ValueError):
    """Invalid problem data or configuration; maps to CLI exit code 2."""


class DimensionMismatchError(ValidationError):
    """Array shapes are inconsistent with each other or with m, n."""


class NonFiniteDataError(ValidationError):
    """An input array contains NaN or infinite entries."""


class SparsityRangeError(ValidationError):
    """The sparsity bound s is not an integer in {0, ..., n-1}."""


class MeasurementBoundError(ValidationError):
    """The sparsity bound s exceeds the number of measurements m."""


class ToleranceError(ValidationError):
    """A tolerance configuration violates its invariants."""


class InstanceFormatError(ValidationError):
    """An instance file could not be parsed; the message is line-precise."""
