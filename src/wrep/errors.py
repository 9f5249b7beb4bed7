"""Exception types shared across the package."""


class WrepError(Exception):
    """Base class for all package errors."""


class ArityError(WrepError):
    """Mismatched lengths of paired argument lists."""


class DegenerateNodes(WrepError):
    """Interpolation nodes are not pairwise distinct."""


class SingularLead(WrepError):
    """Series inversion attempted with a non-invertible leading coefficient."""


class ShapeError(WrepError):
    """Column tuple is not unimodal / row tuple not nondecreasing."""


class InvariantViolation(WrepError):
    """An internal consistency check failed; indicates a bug or bad data."""


class ValidationError(WrepError):
    """Highest-weight data failed validation."""


class OrderError(WrepError):
    """A truncated series was queried past its verified order."""


class EvaluationError(WrepError):
    """A denominator vanished at a point, or holds the variable kept free."""


class NotInvariant(WrepError):
    """Operator expected to be symmetric is not."""


class ConfigError(WrepError):
    """Malformed job configuration."""
