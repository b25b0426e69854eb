"""Regime classification for the consumption process.

The wealth process starts at ``x``, consumes ``c`` each period, and the
remainder is multiplied by a positive i.i.d. shock.  Whether the survival
probability is 0, strictly between 0 and 1, or 1 depends only on the mean
log shock and the essential support of the shock:

* mean log shock <= 0: ruin is certain from every initial stock;
* otherwise the discounted shock series has essential bounds
  ``d1 = 1/(M-1)`` (or ``+inf`` when ``M <= 1``) and ``d2 = 1/(m-1)``
  (or ``+inf`` when ``m <= 1``), where ``(m, M)`` is the shock support,
  and survival probability is 0 below ``c*(d1+1)``, 1 above ``c*(d2+1)``,
  and interior in between.

The deterministic helpers cover the constant-productivity special case,
where the threshold ``c*r/(r-1)`` and the exact ruin period have closed
forms; they double as oracles for the degenerate constant-shock family.

Infinities are ordinary ``math.inf`` values throughout, never sentinels.
A NaN stock ``x``, a ``c`` that is not positive and finite, or a NaN or
infinite productivity ``r`` raises ``ValueError``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

from .errors import _require_consumption, _require_finite, _require_positive_finite, _require_stock
from .shocks import ShockSpec

# Horizons checked against the exact partial sums; r**N has about 53*N bits.
_EXACT_TERMS = 20_000

__all__ = [
    "Regime",
    "Trichotomy",
    "classify",
    "deterministic_horizon",
    "deterministic_min_stock",
    "trichotomy",
]


class Trichotomy(enum.Enum):
    """Where an initial stock falls relative to the certain-ruin/survival bands."""

    ZERO = "zero"
    INTERIOR = "interior"
    ONE = "one"
    BOUNDARY_UNDETERMINED = "boundary-undetermined"


@dataclass(frozen=True)
class Regime:
    """Classification output for one shock distribution.

    Thresholds are multipliers of the consumption level: ruin is certain
    when ``x/c`` is below ``certain_ruin_threshold`` and survival is
    certain when ``x/c`` is at or above ``certain_survival_threshold``
    (both ``+inf`` when the band never occurs).
    """

    elog: float
    m: float
    M: float
    d1: float
    d2: float
    certain_ruin_threshold: float
    certain_survival_threshold: float

    @property
    def ruin_certain(self) -> bool:
        """True when ruin has probability one from every initial stock."""
        return self.elog <= 0.0

    def describe(self) -> str:
        if self.ruin_certain:
            return "ruin certain for every initial stock (mean log shock <= 0)"
        parts = []
        if self.d1 > 0.0:
            parts.append(f"ruin certain for x/c < {self.certain_ruin_threshold:.6g}")
        if math.isinf(self.d2):
            parts.append("0 < survival probability < 1 for every x above the ruin band")
        else:
            parts.append(
                f"survival certain for x/c >= {self.certain_survival_threshold:.6g}"
            )
        if self.d1 == 0.0 and math.isinf(self.d2):
            return "interior: 0 < survival probability < 1 for every x > c"
        return "; ".join(parts)

    def to_record(self) -> dict:
        """Fields in order, infinities written as the marker ``"inf"``."""
        return {k: ("inf" if math.isinf(v) else v) for k, v in asdict(self).items()}


def deterministic_min_stock(r: float, c: float) -> float:
    """Smallest initial stock sustaining ``c`` forever at constant productivity ``r``.

    Returns ``c*(r/(r-1))`` for r > 1, which overflows only when the
    threshold itself does.  For r <= 1 no initial stock works,
    reported as ``+inf`` rather than an error.  A NaN or infinite ``r`` raises.
    """
    c = _require_consumption(c)
    r = _require_finite("productivity", "r", r)
    if r <= 1.0:
        return math.inf
    return c * (r / (r - 1.0))


def deterministic_horizon(r: float, x: float, c: float) -> float:
    """Number of periods consumption ``c`` survives from stock ``x`` at productivity ``r``.

    Returns the largest N with ``sum(1/r**j, j < N) < x/c`` (the exact ruin
    index of the iterated map), ``0`` when ``x <= c``, and ``+inf`` when the
    stock is infinite or at or above the sustainability threshold
    ``c*r/(r-1)``.  That threshold is decided on exact rationals, never on
    its rounded float ``deterministic_min_stock``.  The ratio x/c and the
    sums are exact rationals, so x/c may exceed the float range; the
    closed-form candidate is checked exactly while N is at most
    ``_EXACT_TERMS``, and used as it is beyond.  An N past 2**53, which a
    float cannot hold exactly, raises ``ValueError``.
    """
    c = _require_consumption(c)
    r = _require_positive_finite("productivity", "r", r)
    x = _require_stock(x)
    if x <= c:
        return 0.0
    if x == math.inf:
        return math.inf
    from fractions import Fraction  # here: it imports decimal, ~3 ms of CLI start-up

    w = Fraction(x) / Fraction(c)
    if r == 1.0:
        n = math.ceil(w) - 1
    else:
        # sum(1/r**j, j < N) < w  <=>  N < -log(q)/log(r), both sides of r = 1
        ratio = Fraction(r)
        q = 1 - w * (1 - 1 / ratio)
        if q <= 0:  # x/c >= r/(r-1): at or above the sustainability threshold
            return math.inf
        log_q = math.log(q.numerator) - math.log(q.denominator)  # q's float may overflow
        n = max(math.ceil(-log_q / math.log(r)) - 1, 0)

        def below(terms: int) -> bool:
            return (1 - ratio ** -terms) / (1 - 1 / ratio) < w

        if n <= _EXACT_TERMS:
            while below(n + 1):
                n += 1
            while n > 0 and not below(n):
                n -= 1
    if n > 2 ** 53:
        raise ValueError(
            f"deterministic horizon overflows: more than 2**53 periods, past the "
            f"integers a float holds exactly, for r={r}, x={x}, c={c}"
        )
    return float(n)


def classify(spec: ShockSpec) -> Regime:
    """Classify a shock distribution into its survival regime."""
    elog = spec.expected_log()
    m, M = spec.support_bounds()
    d1 = 1.0 / (M - 1.0) if M > 1.0 else math.inf
    d2 = 1.0 / (m - 1.0) if m > 1.0 else math.inf
    if elog <= 0.0:
        ruin_threshold = math.inf
        survival_threshold = math.inf
    else:
        ruin_threshold = d1 + 1.0
        survival_threshold = d2 + 1.0
    return Regime(
        elog=elog,
        m=m,
        M=M,
        d1=d1,
        d2=d2,
        certain_ruin_threshold=ruin_threshold,
        certain_survival_threshold=survival_threshold,
    )


def trichotomy(regime: Regime, x: float, c: float) -> Trichotomy:
    """Locate ``x`` relative to the certain-ruin and certain-survival bands.

    The comparisons behind ZERO and ONE are strict.  A stock exactly on the
    lower band edge is reported as BOUNDARY_UNDETERMINED; the upper edge
    belongs to the survival side (when the shock is bounded away from 1 the
    threshold stock sustains consumption exactly), so it returns ONE.
    """
    c = _require_consumption(c)
    x = _require_stock(x)
    if x <= c or regime.elog <= 0.0:
        return Trichotomy.ZERO
    w = x / c - 1.0
    if w < regime.d1:
        return Trichotomy.ZERO
    if w >= regime.d2:
        return Trichotomy.ONE
    if w == regime.d1:
        return Trichotomy.BOUNDARY_UNDETERMINED
    return Trichotomy.INTERIOR
