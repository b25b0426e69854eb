"""Exception types shared across the package, and the one statement of each input rule.

Each rule below (integer, positive and finite, finite, shock parameters, stock,
growth, horizon, seed, truncation) names its argument; a NaN stock fails first.

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


def _require_finite(name: str, symbol: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is finite (NaN and either infinity are not)."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {symbol}={value}")


def _require_shock_parameters(spec, finite=()) -> None:
    """Raise ``ValueError`` unless each shock parameter is finite, and > 0 if not in ``finite``."""
    for name, value in vars(spec).items():
        label = f"{spec.family} {name}"
        if name not in finite:
            _require_positive_finite(label, name, value)
        else:
            _require_finite(label, name, value)


def _require_stock(x, positive: bool = False) -> None:
    """Raise ``ValueError`` if the stock ``x`` is NaN or, when ``positive``, not above 0."""
    if x != x:  # NaN first: it has no order and no survival event
        raise ValueError(f"x must not be NaN, got x={x}")
    if positive and x <= 0:
        raise ValueError(f"x must be positive, got x={x}")


def _require_growth(spec) -> None:
    """Raise ``DomainError`` unless ``spec`` has E[log shock] > 0; else the series diverges."""
    elog = spec.expected_log()
    if not elog > 0.0:
        raise DomainError(f"the series needs E[log shock] > 0, got {elog} for {spec!r}; "
                          "it diverges almost surely")


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
