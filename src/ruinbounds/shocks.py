"""Shock distribution families for the multiplicative growth process.

Each period the invested surplus is multiplied by an i.i.d. positive shock.
Everything downstream (regimes, moment recursions, Chebyshev bounds, Monte
Carlo) is driven by a handful of quantities of the shock distribution:

* the inverse moments ``E[shock^-r]`` (finite or ``+inf``),
* the mean of the log shock,
* the essential support bounds, and
* draws of the *reciprocal* shock.

Four families are provided: lognormal, Pareto, and gamma shocks, plus a
degenerate constant shock used as an exactly solvable oracle in tests.
Each is a frozen dataclass derived from ``ShockSpec``, the base class that
defines the record format (``family`` plus the dataclass fields, in field
order), the family registry behind ``spec_from_record``, the linear
inverse moment, ``sample_inverse`` and the parameter check on construction
(``errors``' rule, which stores each parameter as a Python float).
Instances are frozen and safe to share between threads.

A family states its draw once, in two pieces: ``_draw`` makes the raw
uniform, standard normal or standard gamma draw into an array ``out``, and
``_transform`` maps those raw values to reciprocal shocks in place.
``sample_inverse(rng, size)`` is one draw of ``size`` values followed by
its transform, always an array; the Monte Carlo module draws many raw rows
and transforms a whole block at once.
Both give the same bits as ``rng.normal``, ``rng.random`` and ``rng.gamma``
would, because numpy computes ``normal(loc, scale)`` as ``loc + scale * z``
and ``gamma(shape, scale)`` as ``scale * standard_gamma(shape)``.

Inverse moments are exposed both linearly and in log form.  The log form
is exact (no exponentiation) and is what the moment recursion consumes, so
orders around 60 never overflow.

Whether an inverse moment reaches 1 is decided apart from that rounded
log, in integers: ``_exact_gaps`` writes each stored float as
``float.as_integer_ratio()`` and builds the powers of order r one order
at a time, so the sign of ``1 - E[shock^-r]`` is exact for the parameters
as stored.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from ._special import digamma
from .errors import (ConfigError, FeasibilityError, _as_float, _require_integer,
                     _require_shock_parameters)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp stays finite up to here
_FLOAT_MIN = sys.float_info.min  # smallest normal double
_LARGE_SHAPE = 2.0 ** 10  # from here on, a gamma moment takes the product form


def _exp_or_inf(log_value: float) -> float:
    """``math.exp(log_value)``, or ``+inf`` above ``_LOG_FLOAT_MAX``, where ``math.exp`` raises."""
    return math.inf if log_value > _LOG_FLOAT_MAX else math.exp(log_value)


__all__ = [
    "Lognormal",
    "Pareto",
    "Gamma",
    "Constant",
    "ShockSpec",
    "match_inverse_moments",
    "spec_from_record",
]


class ShockSpec:
    """Base class of the shock families.

    A family is a frozen dataclass whose fields are its parameters, with a
    ``family`` name and the per-family formulas ``log_inverse_moment``,
    ``expected_log``, ``support_bounds`` (the essential infimum and supremum
    ``(m, M)``), ``_draw``, ``_transform`` and ``_exact_gaps``.  The last
    yields, for r = 1, 2, ..., an integer pair ``(num, den)`` with
    ``den > 0`` whose ``num`` is positive exactly when ``E[shock^-r] < 1``
    for the stored parameters; ``_log_gap`` turns a pair into
    ``log(1 - E[shock^-r])``.
    """

    family: ClassVar[str]
    _finite: ClassVar[tuple] = ()  # parameters that need not be positive

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # each family holds its own binding, so a per-class wrapper (the
        # benchmark tracer's) counts that family's draws alone
        cls.sample_inverse = ShockSpec.sample_inverse

    def __post_init__(self) -> None:
        _require_shock_parameters(self, self._finite)

    def sample_inverse(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """An array of ``size`` draws of the reciprocal shock."""
        return self._transform(self._draw(rng, np.empty(size)))

    def _log_gap(self, num: int, den: int) -> float:
        # the pair is 1 - gamma_r itself, except for the lognormal
        return _log_ratio(num, den)

    def inverse_moment(self, r: int) -> float:
        """E[shock^-r], ``+inf`` where it diverges or overflows a double."""
        return _exp_or_inf(self.log_inverse_moment(r))

    def to_record(self) -> dict:
        """Flat record ``{"family": ..., <field>: <value>, ...}`` in field order."""
        return {"family": self.family, **asdict(self)}


@dataclass(frozen=True)
class Lognormal(ShockSpec):
    """Shock ``exp(N)`` with ``N`` normal with mean ``mu``, variance ``sigma2``."""

    family = "lognormal"
    _finite = ("mu",)
    mu: float
    sigma2: float

    def log_inverse_moment(self, r: int) -> float:
        """log E[shock^-r] = -r*mu + r^2*sigma2/2, exact for every r >= 1."""
        r = _require_integer("moment order", r, 1)
        value = -r * self.mu + r * r * self.sigma2 / 2.0
        if value == value:
            return value
        # -inf + inf: both terms leave the float range, so round the exact
        # -num/den once, to +-inf past the range
        num, den = next(itertools.islice(self._exact_gaps(), r - 1, None))
        try:
            return -num / den
        except OverflowError:
            return math.inf if num < 0 else -math.inf

    def expected_log(self) -> float:
        return self.mu

    def _exact_gaps(self):
        # the pair is x = -log gamma_r, positive exactly when r*sigma2 < 2*mu;
        # with sigma2 = a/b and mu = c/d, x = r*(2*c*b - r*a*d) / (2*b*d)
        a, b = self.sigma2.as_integer_ratio()
        c, d = self.mu.as_integer_ratio()
        for r in itertools.count(1):
            yield r * (2 * c * b - r * a * d), 2 * b * d

    def _log_gap(self, num: int, den: int) -> float:
        # log(1 - exp(-x)) for x = num/den; below the normal range 1 - exp(-x) is x
        try:
            x = num / den
        except OverflowError:  # x past the float range: 1 - exp(-x) is 1
            return 0.0
        return math.log(-math.expm1(-x)) if x >= _FLOAT_MIN else _log_ratio(num, den)

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, math.inf

    def _draw(self, rng, out):
        return rng.standard_normal(out=out)

    def _transform(self, values):
        # exp(-(mu + sigma*z)), with the sign folded into exact negations
        values *= -math.sqrt(self.sigma2)
        values -= self.mu
        with np.errstate(over="ignore"):  # +inf past the float range
            return np.exp(values, out=values)


@dataclass(frozen=True)
class Pareto(ShockSpec):
    """Pareto shock with tail index ``beta`` and scale ``k``.

    Density ``beta * k**beta / x**(beta+1)`` on ``x >= k``.  The reciprocal
    shock lives on ``(0, 1/k]`` with r-th moment ``beta / (k**r * (beta+r))``.
    """

    family = "pareto"
    beta: float
    k: float

    def log_inverse_moment(self, r: int) -> float:
        r = _require_integer("moment order", r, 1)
        return math.log(self.beta) - r * math.log(self.k) - math.log(self.beta + r)

    def expected_log(self) -> float:
        return math.log(self.k) + 1.0 / self.beta

    def _exact_gaps(self):
        # with beta = p/q and k = s/t, gamma_r = p*t**r / (s**r * (p + r*q))
        p, q = self.beta.as_integer_ratio()
        s, t = self.k.as_integer_ratio()
        s_r = t_r = 1
        for r in itertools.count(1):
            s_r *= s
            t_r *= t
            den = s_r * (p + r * q)
            yield den - p * t_r, den

    def support_bounds(self) -> tuple[float, float]:
        return self.k, math.inf

    def _draw(self, rng, out):
        return rng.random(out=out)

    def _transform(self, values):
        # Inverse CDF: shock = k * u**(-1/beta), u = 1 - draw uniform on (0, 1].
        np.subtract(1.0, values, out=values)
        values **= 1.0 / self.beta
        with np.errstate(over="ignore"):  # +inf past the float range
            values /= self.k
        return values


@dataclass(frozen=True)
class Gamma(ShockSpec):
    """Gamma shock with shape ``alpha`` and rate ``theta``.

    Density proportional to ``x**(alpha-1) * exp(-theta*x)``.  The reciprocal
    shock is inverse-gamma; its r-th moment is finite only for r < alpha.
    """

    family = "gamma"
    alpha: float
    theta: float

    def log_inverse_moment(self, r: int) -> float:
        r = _require_integer("moment order", r, 1)
        alpha = self.alpha
        if r >= alpha:
            return math.inf
        if alpha < _LARGE_SHAPE:
            return r * math.log(self.theta) + math.lgamma(alpha - r) - math.lgamma(alpha)
        # Gamma(alpha) / Gamma(alpha - r) = alpha**r * prod_{j<=r} (1 - j/alpha): the
        # lgamma difference would cancel to nothing here, and lgamma overflows
        # above alpha ~ 2.5e305.  Near alpha, theta - alpha is exact (Sterbenz),
        # so log1p keeps the bits that the rounding of theta/alpha would lose.
        theta = self.theta
        log_ratio = (math.log1p((theta - alpha) / alpha) if alpha / 2 <= theta <= 2 * alpha
                     else _log_ratio(theta, alpha))
        return r * log_ratio - math.fsum(math.log1p(-j / alpha) for j in range(1, r + 1))

    def expected_log(self) -> float:
        return digamma(self.alpha) - math.log(self.theta)

    def _exact_gaps(self):
        # for r < alpha, gamma_r = theta**r / prod_{j<=r} (alpha - j); with
        # alpha = c/d and theta = a/b, that is (a*d)**r / (b**r * prod (c - j*d))
        c, d = self.alpha.as_integer_ratio()
        a, b = self.theta.as_integer_ratio()
        top = bottom = 1
        for r in itertools.count(1):
            if r * d >= c:  # r >= alpha: the moment diverges
                yield 0, 1
                continue
            top *= a * d
            bottom *= b * (c - r * d)
            yield bottom - top, bottom

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, math.inf

    def _draw(self, rng, out):
        return rng.standard_gamma(self.alpha, out=out)

    def _transform(self, values):
        # past the float range, or from a draw that underflows to 0 or is
        # subnormal, the shock is +inf and its reciprocal 0, or the reverse;
        # a draw of 0 times 1/theta = +inf is NaN, which montecarlo reports
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values *= 1.0 / self.theta
            return np.reciprocal(values, out=values)


@dataclass(frozen=True)
class Constant(ShockSpec):
    """Degenerate shock equal to ``a`` with probability one.

    Every derived quantity has a closed form (the discounted series is
    ``1/(a-1)`` when a > 1), which makes this family the exact oracle for
    the recursive and simulated paths.
    """

    family = "constant"
    a: float

    def log_inverse_moment(self, r: int) -> float:
        r = _require_integer("moment order", r, 1)
        return -r * math.log(self.a)

    def expected_log(self) -> float:
        return math.log(self.a)

    def _exact_gaps(self):
        # with a = u/v, gamma_r = v**r / u**r, below 1 exactly when a > 1
        u, v = self.a.as_integer_ratio()
        u_r = v_r = 1
        while True:
            u_r *= u
            v_r *= v
            yield u_r - v_r, u_r

    def support_bounds(self) -> tuple[float, float]:
        return self.a, self.a

    def _draw(self, rng, out):
        return out  # a degenerate shock consumes no random numbers

    def _transform(self, values):
        values.fill(1.0 / self.a)
        return values


def _log_ratio(num, den) -> float:
    """log(num/den) for positive integers with num <= den, or positive floats.

    The division rounds correctly; a ratio below the normal float range
    takes the two logs apart, so no bits are lost to underflow.
    """
    ratio = num / den
    return math.log(ratio) if ratio >= _FLOAT_MIN else math.log(num) - math.log(den)


_FAMILIES = {cls.family: cls for cls in (Lognormal, Pareto, Gamma, Constant)}


def spec_from_record(record: dict) -> ShockSpec:
    """Build a spec from a flat key/value record (CLI configs, JSON)."""
    rec = {str(key).lower(): value for key, value in record.items()}
    family = str(rec.pop("family", "")).lower()
    if family not in _FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    cls = _FAMILIES[family]
    names = [f.name for f in fields(cls)]
    missing = [name for name in names if name not in rec]
    if missing:
        raise ConfigError(f"family {family!r} missing parameters {missing}")
    extra = [name for name in rec if name not in names]
    if extra:
        raise ConfigError(f"family {family!r} got unknown parameters {extra}")
    try:
        params = {name: float(rec[name]) for name in names}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric parameter for family {family!r}: {exc}") from exc
    try:
        return cls(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def match_inverse_moments(family: str, gamma1: float, gamma2: float) -> ShockSpec:
    """Find the family member whose reciprocal shock has the given first two moments.

    Solves ``E[shock^-1] = gamma1`` and ``E[shock^-2] = gamma2`` in closed
    form.  Used to put different families on an equal footing before
    comparing their survival bounds.

    Feasibility requires ``gamma2 > gamma1**2`` (Cauchy-Schwarz, with
    equality only for a degenerate shock, which this function does not
    produce).  Where ``gamma1**2`` falls below the normal float range, the
    ratio ``t = gamma2 / gamma1**2`` is taken from the logs of the moments.
    A family member whose parameters leave the float range raises
    ``FeasibilityError``, like moments that no member has, and so does one
    whose ``log E[shock^-2]`` misses ``log(gamma2)`` by more than 1e-9, as
    where a gamma shape of 2 + 1e-15 rounds to ``2.000000000000001``.
    """
    family = family.lower()
    gamma1, gamma2 = _as_float(gamma1), _as_float(gamma2)
    if not (0.0 < gamma1 < 1.0 and 0.0 < gamma2 < 1.0):
        raise FeasibilityError(
            f"moments must lie in (0, 1), got gamma1={gamma1}, gamma2={gamma2}"
        )
    square = gamma1 * gamma1
    if square >= _FLOAT_MIN:
        t = gamma2 / square
        log_t = math.log(t)
    else:  # gamma1**2 underflows: take t from the logs
        log_t = math.log(gamma2) - 2.0 * math.log(gamma1)
        t = _exp_or_inf(log_t)
    if not t > 1.0:
        raise FeasibilityError(
            f"gamma2 must exceed gamma1^2 = {square}; got gamma2={gamma2}"
        )
    if family == "lognormal":
        spec = Lognormal(log_t / 2.0 - math.log(gamma1), log_t)  # sigma2 = log t
    elif family == "pareto":
        beta = math.expm1(-0.5 * math.log1p(-1.0 / t))  # sqrt(t / (t - 1)) - 1, no cancellation
        k = beta / (gamma1 * (beta + 1.0))
        if not (beta > 0.0 and k < math.inf):  # beta rounds to 0, or k overflows
            raise FeasibilityError(
                f"no pareto shock in the float range has gamma1={gamma1}, gamma2={gamma2}"
            )
        spec = Pareto(beta, k)
    elif family == "gamma":
        alpha = (2.0 * t - 1.0) / (t - 1.0)
        if not 2.0 < alpha < math.inf:  # 2t overflows where alpha rounds to 2 anyway
            raise FeasibilityError(f"gamma family needs a finite shape > 2 for a finite second "
                                   f"inverse moment, got alpha={alpha}")
        spec = Gamma(alpha, gamma1 * (alpha - 1.0))  # theta
    else:
        raise FeasibilityError(f"family {family!r} cannot be matched; "
                               f"choose lognormal, pareto, or gamma")
    miss = abs(spec.log_inverse_moment(2) - math.log(gamma2))
    if not miss <= 1e-9:
        raise FeasibilityError(f"{spec}, the closest in floats, misses log gamma2 by {miss:.3g}")
    return spec
