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
n >= 1 (the n-term partial sum) or ``math.inf`` (the series, the default);
``schedule`` and ``schedules`` reject anything else with ``ValueError``.

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
* the raw ruin estimate is ``+inf`` once its log reaches
  ``_LOG_RAW_CUTOFF`` = 700, that is for raw bounds from about 1.01e304,
  although a double reaches 1.8e308; such a bound is vacuous anyway;
* at ``x = +inf`` (or wherever ``x/c`` overflows) the raw bound is 0 when
  the moment in use is finite and ``+inf`` when it is infinite, as at every
  finite x on that schedule;
* with fewer than two finite moments the schedule degenerates to the
  single order 1 and is flagged;
* a NaN stock ``x`` raises ``ValueError`` (it has no order), as does a
  ``c`` that is not positive and finite.

Evaluation runs in log space so order-60 schedules (binomials ~1e17,
moments spanning decades) remain accurate.  A schedule holds ``c`` as a
Python float and its edges and log moments as tuples of them, so one scalar
evaluation is a type test, a ``bisect``, one ``math.log`` and one tuple
build; ``np.asarray`` gives the tuples as arrays.  Every argument is
admitted by its rule in ``errors``, which gives a numpy scalar the equal
Python number; ``evaluate_bound`` calls the stock rule only for an ``x``
that is not already a Python float.
``evaluate_bound`` reads those tuples itself, with the rule of ``order_for``
(clamped to ``max_order``) written out instead of called, and builds its
``BoundResult`` with ``tuple.__new__``, skipping the Python-level
``__new__`` that ``NamedTuple`` generates.  The result is
still an immutable ``BoundResult``, so it also equals the plain tuple of its
two stored values: ``order`` and ``log_raw``, the log of the raw bound
``beta_r / (x/c - 1)^r`` (``+inf`` when x <= c).  The stock ``x`` and the
level ``c`` are the caller's (``c`` is ``sched.c``), so a result does not
repeat them.  Its five other attributes, ``survival_lower``, ``ruin_raw``
(where the 700 cutoff is applied), ``ruin_upper``, ``vacuous`` and
``below_consumption``, are properties derived from those two on each read,
so a result kept in a long list costs two slots and at most one new float.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import _require_consumption, _require_horizon, _require_integer, _require_stock
from .moments import FiniteMomentGrid, MomentTable, finite_moments, infinite_moments
from .shocks import ShockSpec, _exp_or_inf

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
    the partial sum, or ``math.inf`` for the full series.

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
    horizon: int | float  # math.inf for the series
    log_beta_values: tuple  # index r = 0..K, log series moments, [0] = 0
    boundaries: tuple       # length max_order, see above for the order
    max_order: int

    @property
    def degenerate(self) -> bool:
        return not self.boundaries

    def order_for(self, x: float) -> int:
        """Optimal order for stock ``x > c`` (ties go to the lower order); NaN raises."""
        i = bisect_left(self.boundaries, x)
        if i == 0:  # bisect_left sends NaN to 0; only that branch pays
            _require_stock(x)
        return i + 1 if i < self.max_order else self.max_order


class BoundResult(NamedTuple):
    """One bound evaluation: the log of the raw ruin estimate, and what follows from it.

    An immutable ``NamedTuple`` of two stored fields, so it also equals the
    plain tuple ``(order, log_raw)``; the stock ``x`` and the level ``c``
    are the caller's.  ``survival_lower``, ``ruin_raw``, ``ruin_upper``,
    ``vacuous`` and ``below_consumption`` are read-only properties derived
    from them on each read; ``ruin_raw`` applies the ``_LOG_RAW_CUTOFF`` of
    700.  There is none for a NaN ``x``: ``evaluate_bound`` raises
    ``ValueError`` instead.
    """

    order: int               # 0 when x <= c
    log_raw: float           # log(beta_r / (x/c - 1)^r); +inf when x <= c

    @property
    def survival_lower(self) -> float:
        """The survival lower bound ``1 - ruin_raw``, clamped to 0."""
        log_raw = self.log_raw
        return -math.expm1(log_raw) if log_raw < 0.0 else 0.0

    @property
    def ruin_raw(self) -> float:
        """The raw ruin estimate, ``+inf`` from ``log_raw >= _LOG_RAW_CUTOFF`` on."""
        log_raw = self.log_raw
        # not shocks._exp_or_inf: bench/workloads.py bound_oracle shares this 700 cutoff
        return math.exp(log_raw) if log_raw < _LOG_RAW_CUTOFF else math.inf

    @property
    def ruin_upper(self) -> float:
        """The raw ruin estimate clamped to 1."""
        return min(self.ruin_raw, 1.0)

    @property
    def vacuous(self) -> bool:
        """True when the survival bound was clamped to zero."""
        return not self.log_raw < 0.0

    @property
    def below_consumption(self) -> bool:
        """True when x <= c (ruin immediate or certain)."""
        return self.order == 0


# Builds the same BoundResult as BoundResult(...), without the call of the
# Python-level __new__ that NamedTuple generates.
_new_tuple = tuple.__new__

# From this log on, BoundResult.ruin_raw reads +inf (see the module
# docstring); bench/workloads.py bound_oracle uses the same cutoff.
_LOG_RAW_CUTOFF = 700.0


def switch_boundary(log_beta, r: int, c: float) -> float:
    """Upper edge ``c*(1 + beta_{r+1}/beta_r)`` of order r's interval, from log moments.

    ``+inf`` when either moment is infinite or the ratio overflows.  Keep
    ``_exp_or_inf``'s ``math.exp``: ``np.exp`` differs in the last bit on some inputs.
    """
    if log_beta[r + 1] == math.inf or log_beta[r] == math.inf:
        return math.inf
    if log_beta[r + 1] == -math.inf:  # a moment of 0 in floats: ratio 0, as for finite log_beta[r]
        return c
    log_ratio = log_beta[r + 1] - log_beta[r]  # Python floats: +inf past the range, no warning
    return c * (1.0 + _exp_or_inf(log_ratio))


def schedule(moments: MomentTable | FiniteMomentGrid, c: float,
             horizon: int | float = math.inf) -> BoundSchedule:
    """Build the order schedule from a moment table at consumption level ``c``.

    Pass a ``MomentTable`` for the full series (``horizon=math.inf``, the
    default), or a ``FiniteMomentGrid`` together with ``horizon=n``, at most
    its ``nmax``, for the n-term partial sum.
    """
    c = _require_consumption(c)
    horizon = _require_horizon(horizon)
    if isinstance(moments, FiniteMomentGrid):
        if horizon > moments.nmax:
            raise ValueError(f"horizon must be at most the grid's nmax {moments.nmax}, "
                             f"got {horizon!r}")
        log_col = moments.log_beta_grid[:, horizon].tolist()
    elif horizon != math.inf:
        raise ValueError(f"a MomentTable holds the series only, horizon math.inf; got {horizon!r}")
    else:
        log_col = moments.log_beta_values.tolist()
    last_finite = max((r for r in range(1, len(log_col)) if log_col[r] < math.inf), default=0)
    return BoundSchedule(
        spec=moments.spec,
        c=c,
        horizon=horizon,
        log_beta_values=tuple(log_col[: max(last_finite, 1) + 1]),
        boundaries=tuple(switch_boundary(log_col, r, c) for r in range(1, last_finite)),
        max_order=max(last_finite - 1, 1),
    )


def schedules(spec: ShockSpec, c: float, horizons, rmax: int) -> list[BoundSchedule]:
    """One schedule per horizon, in order, from moments up to ``rmax``.

    Each horizon is checked first.  Partial-sum moments are computed once, up
    to the largest integer horizon, and series moments only for ``math.inf``.
    """
    rmax = _require_integer("rmax", rmax, 1)  # also when no horizon needs moments
    horizons = [_require_horizon(h) for h in horizons]
    finite = [h for h in horizons if h != math.inf]
    grid = finite_moments(spec, rmax, max(finite)) if finite else None
    table = infinite_moments(spec, rmax) if math.inf in horizons else None
    return [schedule(table if h == math.inf else grid, c, h) for h in horizons]


def evaluate_bound(sched: BoundSchedule, x: float) -> BoundResult:
    """Evaluate the survival lower bound / ruin upper bound at stock ``x``.

    Raises ``ValueError`` for a NaN ``x``.
    """
    if type(x) is not float:  # a Python float, as the rule admits it, skips the call
        x = _require_stock(x)
    try:
        log_excess = math.log(x / sched.c - 1.0)
    except ValueError:  # x <= c: the log of a number <= 0
        return _new_tuple(BoundResult, (0, math.inf))  # order, log_raw
    if not log_excess < math.inf:  # x is NaN, or x/c is +inf
        r = sched.order_for(x)  # raises for NaN
        # beta_r / inf**r: 0, or +inf (not NaN) where beta_r is infinite
        log_raw = -math.inf if sched.log_beta_values[r] < math.inf else math.inf
        return _new_tuple(BoundResult, (r, log_raw))
    # sched.order_for(x), without the method call
    r = bisect_left(sched.boundaries, x) + 1
    if r > sched.max_order:
        r = sched.max_order
    return _new_tuple(BoundResult, (r, sched.log_beta_values[r] - r * log_excess))


def survival_lower_bound(sched: BoundSchedule, x: float) -> float:
    """Lower bound on the probability of surviving forever (or to the horizon)."""
    return evaluate_bound(sched, x).survival_lower


def ruin_upper_bound(sched: BoundSchedule, x: float) -> float:
    """Upper bound on the ruin probability, clamped to [0, 1]."""
    return evaluate_bound(sched, x).ruin_upper


@dataclass(frozen=True)
class BoundaryTable:
    """Switch boundaries: a tuple of Python floats per order, one per horizon.

    Two tables compare and hash by value; ``np.asarray(values)`` is the matrix.
    """

    spec: ShockSpec
    c: float
    horizons: tuple  # ints and/or math.inf, column order
    orders: tuple    # row order, 1..rmax-1
    values: tuple    # values[i][j]: order orders[i], horizon horizons[j]; +inf where unplaceable


def boundary_table(spec: ShockSpec, c: float, horizons, rmax: int) -> BoundaryTable:
    """Boundary matrix across horizons, rows r = 1..rmax-1.

    Column j holds the edges of ``schedules`` at ``horizons[j]``, +inf past
    the last one (infinite next moment).
    """
    scheds = schedules(spec, c, horizons, rmax)  # checks rmax before range() does
    orders = tuple(range(1, rmax))
    # one row per order even with no horizon, where zip(*columns) would give none
    values = tuple(tuple(s.boundaries[i] if i < len(s.boundaries) else math.inf for s in scheds)
                   for i in range(len(orders)))
    return BoundaryTable(spec=spec, c=_require_consumption(c),
                         horizons=tuple(s.horizon for s in scheds), orders=orders, values=values)
