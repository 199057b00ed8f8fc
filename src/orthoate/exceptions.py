"""Exception types shared across the package."""


class OrthoError(Exception):
    """Base class for all package-specific errors."""


class InvalidOrder(OrthoError):
    """Score orders out of range: need integers 2 <= k <= r <= 16."""


class DegenerateMoment(OrthoError):
    """A residual moment needed for inversion is below the guard threshold."""


class SingularSystem(OrthoError):
    """The moment matrix of the coefficient linear system is rank-deficient."""


class NonFinite(OrthoError):
    """An input carries NaN or infinity where finite values are required."""


class ShapeMismatch(OrthoError):
    """Array arguments disagree on dimensions."""


class MissingClass(OrthoError):
    """A classifier was asked to fit labels with an absent class."""


class EmptyFold(OrthoError):
    """A split would produce an empty fold."""


class EmptyResidualSet(OrthoError):
    """No factual residuals available for a treatment on the estimation fold."""


class ZeroDenominator(OrthoError):
    """A relative-error denominator is exactly zero."""


class ParseError(OrthoError):
    """A data file cell failed to parse or is missing/non-finite."""


class SchemaError(OrthoError):
    """A data file violates the declared column or label schema."""


class ConfigError(OrthoError):
    """A run configuration is invalid; message lists every violation."""


class InvalidArgument(OrthoError, ValueError):
    """An argument lies outside its documented domain."""
