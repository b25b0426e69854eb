"""Exception types shared across the package, and the one statement of each input rule.

Each rule below (integer, positive and finite, horizon, seed, truncation) names
its argument.

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


def _require_positive_finite(name: str, symbol: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN is neither)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {symbol}={value}")


def _require_consumption(c) -> None:
    """Raise ``ValueError`` unless the consumption level ``c`` is positive and finite."""
    _require_positive_finite("consumption", "c", c)


def _require_horizon(h) -> None:
    """Raise ``ValueError`` unless ``h`` is an integer >= 1 (``Z_h``) or ``math.inf`` (``Z``)."""
    if h != math.inf and (isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1):
        raise ValueError(f"horizon must be an integer >= 1 or math.inf, got {h!r}")


def _require_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an unsigned 64-bit integer, numpy's included."""
    _require_integer("seed", seed, 0)
    if seed >= 2 ** 64:
        raise ValueError(f"seed must be below 2 ** 64, got {seed}")


def _require_truncation(truncation) -> None:
    """Raise ``ValueError`` unless ``truncation`` is ``"adaptive"`` or an integer >= 1."""
    if truncation != "adaptive":
        _require_integer("truncation", truncation, 1)
