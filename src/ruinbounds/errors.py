"""Exception types shared across the package, and the one statement of each input rule.

Each rule below (integer, positive and finite, finite, shock parameters, stock,
growth, horizon, seed, truncation) names its argument; a NaN stock fails first.
Each rule also admits its argument, and callers compute only on what it
returns: a real value as a Python float with the bits of ``float(value)``, and
text, bytes or ``None`` as a ``TypeError``; an integer as a Python ``int``.  So
a numpy scalar argument computes as the equal Python number, with no numpy
overflow warning.  The shock-parameter rule stores the floats on the spec.

The CLI maps these onto distinct exit codes: configuration problems exit
with 2, domain errors (a computation requested outside its region of
validity) with 3, and I/O failures with 4.
"""

import math
import numbers
import operator

__all__ = ["ConfigError", "DomainError", "FeasibilityError"]


class ConfigError(ValueError):
    """A configuration file or CLI argument is malformed."""


class DomainError(ValueError):
    """An operation was requested outside its mathematical domain."""


class FeasibilityError(DomainError):
    """No distribution in the requested family has the requested moments."""


def _as_float(value) -> float:
    """``value`` as a Python float, with the bits of ``float(value)``; ``TypeError`` for text.

    ``float`` would parse a string; ``math.ldexp`` takes only numbers.
    """
    return math.ldexp(value, 0)


def _require_integer(name: str, value, minimum: int | None = None) -> int:
    """Admit an integer (numpy's included) >= ``minimum`` as an ``int``, else ``ValueError``.

    ``bool`` is an ``Integral`` but never a size, so it is rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_positive_finite(name: str, symbol: str, value) -> float:
    """Admit a positive and finite ``value`` (NaN is neither) as a float, else ``ValueError``."""
    value = _as_float(value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {symbol}={value}")
    return value


def _require_finite(name: str, symbol: str, value) -> float:
    """Admit a finite ``value`` (NaN and either infinity are not) as a float; else ValueError."""
    value = _as_float(value)
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {symbol}={value}")
    return value


def _require_shock_parameters(spec, finite=()) -> None:
    """Store each shock parameter on ``spec`` as a float: finite, and > 0 if not in ``finite``."""
    for name, value in tuple(vars(spec).items()):
        rule = _require_finite if name in finite else _require_positive_finite
        object.__setattr__(spec, name, rule(f"{spec.family} {name}", name, value))  # frozen


def _require_stock(x, positive: bool = False) -> float:
    """Admit the stock ``x`` as a float: ``ValueError`` if NaN or, if ``positive``, not above 0."""
    x = _as_float(x)
    if x != x:  # NaN first: it has no order and no survival event
        raise ValueError(f"x must not be NaN, got x={x}")
    if positive and x <= 0:
        raise ValueError(f"x must be positive, got x={x}")
    return x


def _require_growth(spec) -> None:
    """Raise ``DomainError`` unless ``spec`` has E[log shock] > 0; else the series diverges."""
    elog = spec.expected_log()
    if not elog > 0.0:
        raise DomainError(f"the series needs E[log shock] > 0, got {elog} for {spec!r}; "
                          "it diverges almost surely")


def _require_consumption(c) -> float:
    """Admit the consumption level ``c`` as a float if positive and finite, else ``ValueError``."""
    return _require_positive_finite("consumption", "c", c)


def _require_horizon(h) -> int | float:
    """Admit ``h``, an integer >= 1 (``Z_h``) or ``math.inf`` (``Z``), else ``ValueError``."""
    if h != math.inf and (isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1):
        raise ValueError(f"horizon must be an integer >= 1 or math.inf, got {h!r}")
    return math.inf if h == math.inf else operator.index(h)


def _require_seed(seed) -> int:
    """Admit an unsigned 64-bit integer ``seed``, numpy's included, as an ``int``."""
    seed = _require_integer("seed", seed, 0)
    if seed >= 2 ** 64:
        raise ValueError(f"seed must be below 2 ** 64, got {seed}")
    return seed


def _require_truncation(truncation) -> int | str:
    """Admit ``"adaptive"`` or an integer >= 1 as an ``int``, else ``ValueError``."""
    if truncation != "adaptive":
        truncation = _require_integer("truncation", truncation, 1)
    return truncation
