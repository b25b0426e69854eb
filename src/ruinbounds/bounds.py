"""Piecewise Chebyshev lower bounds on survival probability.

For any order r with a finite series moment ``beta_r``, Markov's inequality
gives ``P(ruin from x) < beta_r / (x/c - 1)^r``, hence a lower bound on the
survival probability.  Order r beats order r+1 exactly when
``x <= c * (1 + beta_{r+1}/beta_r)``, so the positive half-line splits into
consecutive intervals

    ( c*(1 + beta_r/beta_{r-1}),  c*(1 + beta_{r+1}/beta_r) ]

on which order r is optimal.  A schedule materializes those switch points
from a moment table (full series or a fixed-horizon column of partial-sum
moments); ``schedules`` builds one per horizon.  A horizon is an integer
n >= 1 (the n-term partial sum) or ``math.inf`` (the series); ``schedule``
and ``schedules`` reject anything else with ``ValueError``.

Conventions, fixed here and used by every caller:

* a point exactly on a switch boundary belongs to the lower order
  (the ``< x <=`` convention);
* the highest order whose *next* moment is still finite is the last one
  with a placeable boundary; beyond that last boundary the schedule keeps
  using that top order (its bound still beats every lower order there);
* an edge is ``+inf`` when ``beta_{r+1}/beta_r`` overflows a double (long
  horizons at high orders); the order below that edge then applies for
  every finite x;
* bounds that come out negative near ``x = c`` are clamped to zero and
  flagged as vacuous, with the raw ruin estimate kept alongside;
* with fewer than two finite moments the schedule degenerates to the
  single order 1 and is flagged;
* a NaN stock ``x`` raises ``ValueError`` (it has no order), as does a
  ``c`` that is not positive and finite.

Evaluation runs in log space so order-60 schedules (binomials ~1e17,
moments spanning decades) remain accurate.  A schedule holds its edges and
log moments as tuples of Python floats, so one scalar evaluation is a
``bisect`` and a few ``math`` calls; ``np.asarray`` gives them as arrays.
``evaluate_bound`` reads those tuples itself, with the rule of ``order_for``
(clamped to ``max_order``) and the index of ``log_beta`` written out instead
of called, and builds its ``BoundResult`` with ``tuple.__new__``, skipping
the Python-level ``__new__`` that ``NamedTuple`` generates.  The result is
still an immutable ``BoundResult``, so it also equals the plain tuple of its
eight values.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _require_consumption, _require_integer
from .moments import FiniteMomentGrid, MomentTable, finite_moments, infinite_moments
from .shocks import _LOG_FLOAT_MAX, ShockSpec

__all__ = [
    "BoundResult",
    "BoundSchedule",
    "BoundaryTable",
    "boundary_table",
    "evaluate_bound",
    "ruin_upper_bound",
    "schedule",
    "schedules",
    "survival_lower_bound",
]


@dataclass(frozen=True)
class BoundSchedule:
    """Switch boundaries and usable orders for one spec, horizon, and c.

    ``boundaries[i]`` is the upper edge of order ``i+1``'s interval and the
    implicit next edge is ``+inf``.  An entry is ``+inf`` itself when
    ``beta_{i+2}/beta_{i+1}`` overflows; order ``i+1`` then covers every
    finite x past the previous edge.  ``horizon`` is the number of terms of
    the partial sum, or None for the full series.

    The edges are nondecreasing except where consecutive orders tie
    analytically, as for ``Constant``, whose edges are all equal in exact
    arithmetic: there rounding leaves them a few hundred ulp apart, in no
    order.  ``order_for`` bisects them as if sorted, as ``np.searchsorted``
    would, and any of the tied orders gives the same bound up to rounding.

    Both sequences are tuples of Python floats, so two schedules compare and
    hash by value.  A schedule with no edge is ``degenerate``: it has fewer
    than two finite moments and uses order 1 everywhere.
    """

    spec: ShockSpec
    c: float
    horizon: int | None
    log_beta_values: tuple  # index r = 0..K, log series moments, [0] = 0
    boundaries: tuple       # length max_order, see above for the order
    max_order: int

    @property
    def degenerate(self) -> bool:
        return not self.boundaries

    def order_for(self, x: float) -> int:
        """Optimal order for stock ``x > c`` (ties go to the lower order); NaN raises."""
        i = bisect_left(self.boundaries, x)
        if i == 0 and x != x:  # bisect_left sends NaN to 0; only that branch pays
            raise ValueError(f"x must not be NaN, got x={x}")
        return i + 1 if i < self.max_order else self.max_order

    def log_beta(self, r: int) -> float:
        return self.log_beta_values[r]


class BoundResult(NamedTuple):
    """One bound evaluation: clamped values plus the raw ruin estimate.

    An immutable ``NamedTuple``, so it also equals the plain tuple of its
    eight values in field order.  There is none for a NaN ``x``:
    ``evaluate_bound`` raises ``ValueError`` instead.
    """

    x: float
    c: float
    order: int
    survival_lower: float
    ruin_upper: float
    ruin_raw: float
    vacuous: bool            # True when the raw bound was clamped
    below_consumption: bool  # True when x <= c (ruin immediate or certain)


# Builds the same BoundResult as BoundResult(...), without the call of the
# Python-level __new__ that NamedTuple generates.
_new_tuple = tuple.__new__


def switch_boundary(log_beta, r: int, c: float) -> float:
    """Upper edge ``c*(1 + beta_{r+1}/beta_r)`` of order r's interval, from log moments.

    ``+inf`` when either moment is infinite or the ratio overflows.  Keep
    ``math.exp``: ``np.exp`` differs in the last bit on some inputs.
    """
    if log_beta[r + 1] == math.inf or log_beta[r] == math.inf:
        return math.inf
    if log_beta[r + 1] == -math.inf:  # a moment of 0 in floats: ratio 0, as for finite log_beta[r]
        return c
    # Python floats: a difference past the float range is +inf, with no warning
    log_ratio = float(log_beta[r + 1]) - float(log_beta[r])
    if log_ratio > _LOG_FLOAT_MAX:
        return math.inf
    return c * (1.0 + math.exp(log_ratio))


def schedule(moments: MomentTable | FiniteMomentGrid, c: float,
             horizon: int | None = None) -> BoundSchedule:
    """Build the order schedule from a moment table at consumption level ``c``.

    Pass a ``MomentTable`` for the full series, or a ``FiniteMomentGrid``
    together with ``horizon=n`` for the n-term partial sum.
    """
    _require_consumption(c)
    if isinstance(moments, FiniteMomentGrid):
        if horizon is None:
            raise ValueError("a horizon is required with a FiniteMomentGrid")
        if (isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral)
                or not 1 <= horizon <= moments.nmax):
            raise ValueError(f"horizon must be an integer in 1..{moments.nmax}, got {horizon!r}")
        log_col = moments.log_beta_grid[:, horizon].tolist()
    else:
        if horizon is not None:
            raise ValueError("horizon applies only to FiniteMomentGrid input")
        log_col = moments.log_beta_values.tolist()
    last_finite = max((r for r in range(1, len(log_col)) if log_col[r] < math.inf), default=0)
    return BoundSchedule(
        spec=moments.spec,
        c=c,
        horizon=horizon,
        log_beta_values=tuple(log_col[: max(last_finite, 1) + 1]),
        # float(): an edge takes the type of c, which may be an int or a numpy scalar
        boundaries=tuple(float(switch_boundary(log_col, r, c)) for r in range(1, last_finite)),
        max_order=max(last_finite - 1, 1),
    )


def schedules(spec: ShockSpec, c: float, horizons, rmax: int) -> list[BoundSchedule]:
    """One schedule per horizon, in order, from moments up to ``rmax``.

    Each horizon is checked first.  Partial-sum moments are computed once, up
    to the largest integer horizon, and series moments only for ``math.inf``.
    """
    _require_integer("rmax", rmax, 1)  # also when no horizon needs moments
    horizons = list(horizons)
    for h in horizons:
        if h != math.inf and (isinstance(h, bool) or not isinstance(h, numbers.Integral)
                              or h < 1):
            raise ValueError(f"horizon must be an integer >= 1 or math.inf, got {h!r}")
    finite = [h for h in horizons if h != math.inf]
    grid = finite_moments(spec, rmax, max(finite)) if finite else None
    table = infinite_moments(spec, rmax) if math.inf in horizons else None
    return [schedule(table, c) if h == math.inf else schedule(grid, c, horizon=h)
            for h in horizons]


def evaluate_bound(sched: BoundSchedule, x: float) -> BoundResult:
    """Evaluate the survival lower bound / ruin upper bound at stock ``x``.

    Raises ``ValueError`` for a NaN ``x``.
    """
    c = sched.c
    if not x > c:
        if x != x:
            raise ValueError(f"x must not be NaN, got x={x}")
        # x, c, order, survival_lower, ruin_upper, ruin_raw, vacuous, below_consumption
        return _new_tuple(BoundResult, (x, c, 0, 0.0, 1.0, math.inf, True, True))
    # sched.order_for(x) and sched.log_beta(r), without the two method calls
    r = bisect_left(sched.boundaries, x) + 1
    if r > sched.max_order:
        r = sched.max_order
    log_raw = sched.log_beta_values[r] - r * math.log(x / c - 1.0)
    if log_raw >= 0.0:
        raw = math.exp(log_raw) if log_raw < 700.0 else math.inf
        return _new_tuple(BoundResult, (x, c, r, 0.0, 1.0, raw, True, False))
    raw = math.exp(log_raw)
    return _new_tuple(BoundResult, (x, c, r, -math.expm1(log_raw), raw, raw, False, False))


def survival_lower_bound(sched: BoundSchedule, x: float) -> float:
    """Lower bound on the probability of surviving forever (or to the horizon)."""
    return evaluate_bound(sched, x).survival_lower


def ruin_upper_bound(sched: BoundSchedule, x: float) -> float:
    """Upper bound on the ruin probability, clamped to [0, 1]."""
    return evaluate_bound(sched, x).ruin_upper


@dataclass(frozen=True, eq=False)
class BoundaryTable:
    """Switch boundaries, one row per order, one column per horizon."""

    spec: ShockSpec
    c: float
    horizons: tuple  # ints and/or math.inf, column order
    orders: tuple    # row order, 1..rmax-1
    values: np.ndarray  # shape (len(orders), len(horizons)); +inf where unplaceable


def boundary_table(spec: ShockSpec, c: float, horizons, rmax: int) -> BoundaryTable:
    """Boundary matrix across horizons, rows r = 1..rmax-1.

    Column j holds the edges of ``schedules`` at ``horizons[j]``, +inf past
    the last one (infinite next moment).
    """
    horizons = tuple(horizons)
    scheds = schedules(spec, c, horizons, rmax)  # checks rmax before range() does
    orders = tuple(range(1, rmax))
    values = np.full((len(orders), len(horizons)), np.inf)
    for col, sched in enumerate(scheds):
        values[:len(sched.boundaries), col] = sched.boundaries
    values.setflags(write=False)
    return BoundaryTable(spec=spec, c=c, horizons=horizons, orders=orders, values=values)
