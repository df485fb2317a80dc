"""Exception hierarchy shared across the package, and its number checks."""

import math
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


def _check_real(name, value, rule, holds):
    """``value`` as a float if it is a real number, not a bool, for which
    ``holds`` is true; otherwise DomainError saying that ``name`` must
    ``rule``. An integer beyond the double range counts as +-inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must {rule}, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range
        value = math.inf if value > 0 else -math.inf
    if not holds(value):
        raise DomainError(f"{name} must {rule}, got {value}")
    return value


def check_positive(name, value):
    """``value`` as a positive, finite float: ratios, variances, tolerances."""
    return _check_real(name, value, "be positive and finite", lambda v: 0.0 < v < math.inf)


def check_nonnegative(name, value):
    """``value`` as a finite, nonnegative float: added noise variances."""
    return _check_real(name, value, "be finite and nonnegative", lambda v: 0.0 <= v < math.inf)


def check_rate(name, value, closed=True):
    """``value`` as a float rate in [0, 1], or in [0, 1) unless ``closed``."""
    if closed:
        return _check_real(name, value, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    return _check_real(name, value, "lie in [0, 1)", lambda v: 0.0 <= v < 1.0)
