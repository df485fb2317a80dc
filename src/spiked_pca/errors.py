"""Exception hierarchy shared across the package, and its integer check."""

import numbers


class SpikedPcaError(Exception):
    """Base class for all library-specific failures."""


class DomainError(SpikedPcaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FormatError(SpikedPcaError, ValueError):
    """A file does not conform to the expected tabular format."""


class NumericalError(SpikedPcaError, RuntimeError):
    """A numerical procedure produced non-finite values or failed to factorize."""


def check_integer(name, value, low):
    """Raise DomainError unless ``value`` is an integer, not a bool, >= ``low``.

    Counts and seeds share this rule.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
