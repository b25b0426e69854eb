"""Exception types shared across the package, and its integer and consumption checks.

The CLI maps these onto distinct exit codes: configuration problems exit
with 2, domain errors (a computation requested outside its region of
validity) with 3, and I/O failures with 4.
"""

import math
import numbers

__all__ = ["ConfigError", "DomainError", "FeasibilityError"]


class ConfigError(ValueError):
    """A configuration file or CLI argument is malformed."""


class DomainError(ValueError):
    """An operation was requested outside its mathematical domain."""


class FeasibilityError(DomainError):
    """No distribution in the requested family has the requested moments."""


def _require_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's included) >= ``minimum``.

    ``bool`` is an ``Integral`` but never a size, so it is rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_consumption(c) -> None:
    """Raise ``ValueError`` unless the consumption level ``c`` is positive and finite."""
    if not 0 < c < math.inf:
        raise ValueError(f"consumption must be positive and finite, got c={c}")
