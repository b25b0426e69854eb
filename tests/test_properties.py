"""Property tests: shock records and table cells round-trip for drawn values,
and the bound schedule's order and value behave as the Chebyshev rule says."""

import math
from dataclasses import fields
from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ruinbounds import (
    Constant,
    Gamma,
    Lognormal,
    Pareto,
    deterministic_horizon,
    finite_moments,
    infinite_moments,
    schedule,
    schedules,
    spec_from_record,
    survival_lower_bound,
)
from ruinbounds.reference import LOGNORMAL_HEAVY, MATCHED_TRIO, PARETO_HEAVY
from ruinbounds.tableio import format_cell, parse_cell

_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)

SPECS = st.one_of(
    st.builds(Lognormal, _finite, _positive),
    st.builds(Pareto, _positive, _positive),
    st.builds(Gamma, _positive, _positive),
    st.builds(Constant, _positive),
)


@given(SPECS)
def test_spec_record_round_trip(spec):
    record = spec.to_record()
    assert list(record) == ["family", *(f.name for f in fields(spec))]
    assert spec_from_record(record) == spec


@given(st.floats(allow_nan=False))
def test_cell_round_trip(value):
    parsed = parse_cell(format_cell(value))
    assert parsed == value
    assert math.copysign(1.0, parsed) == math.copysign(1.0, value)


BOUND_SPECS = {**{f"trio_{k}": v for k, v in MATCHED_TRIO.items()},
               "heavy_pareto": PARETO_HEAVY, "heavy_lognormal": LOGNORMAL_HEAVY,
               "constant": Constant(1.25)}
HORIZONS = (1, 8, 32, 200, None)  # None: the full series


@lru_cache(maxsize=None)
def _moments(name, series):
    spec = BOUND_SPECS[name]
    return infinite_moments(spec, 61) if series else finite_moments(spec, 60, 200)


@lru_cache(maxsize=None)
def _schedule(name, horizon, c):
    if horizon is None:
        return schedule(_moments(name, True), c)
    return schedule(_moments(name, False), c, horizon=horizon)


SCHEDULES = st.builds(_schedule, st.sampled_from(sorted(BOUND_SPECS)),
                      st.sampled_from(HORIZONS), st.sampled_from((1.0, 2.5)))
# exponent u of the stock x = c * (1 + 10^u)
EXPONENTS = st.floats(min_value=-3.0, max_value=4.0, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(SCHEDULES, EXPONENTS)
def test_order_is_brute_force_argmin(sched, u):
    x = sched.c * (1.0 + 10.0 ** u)
    orders = np.arange(1, sched.max_order + 1)
    objective = sched.log_beta_values[1:sched.max_order + 1] - orders * math.log(x / sched.c - 1.0)
    assert sched.order_for(x) == int(np.argmin(objective)) + 1


@settings(deadline=None)
@given(SCHEDULES, EXPONENTS, EXPONENTS)
def test_survival_bound_nondecreasing_in_x(sched, u, v):
    lo, hi = sorted((sched.c * (1.0 + 10.0 ** u), sched.c * (1.0 + 10.0 ** v)))
    assert survival_lower_bound(sched, lo) <= survival_lower_bound(sched, hi) + 1e-15


@lru_cache(maxsize=None)
def _finite_and_series(name, horizon, c):
    """Schedules at one horizon and for the series, both from orders up to 60."""
    return tuple(schedules(BOUND_SPECS[name], c, [horizon, math.inf], 60))


@settings(deadline=None)
@given(st.sampled_from(sorted(BOUND_SPECS)), st.sampled_from(HORIZONS[:-1]),
       st.sampled_from((1.0, 2.5)), EXPONENTS)
def test_finite_horizon_bound_dominates_series_bound(name, horizon, c, u):
    # Z_n <= Z gives beta_r(n) <= beta_r at every order, and the partial sum has
    # at least as many finite moments, so its best bound is at least as high.
    finite, series = _finite_and_series(name, horizon, c)
    x = c * (1.0 + 10.0 ** u)
    assert survival_lower_bound(finite, x) >= survival_lower_bound(series, x) - 1e-15


@settings(deadline=None, max_examples=50)  # a fresh order-60 moment table per example
@given(st.floats(min_value=1.01, max_value=3.0, exclude_min=True, exclude_max=True),
       st.sampled_from(HORIZONS), st.sampled_from((1.0, 2.5)), EXPONENTS)
def test_constant_bound_below_exact_survival(a, horizon, c, u):
    # A constant shock a makes Z_n = sum_{j<=n} a^-j certain: survival to the
    # horizon is the indicator of x > c * (1 + Z_n), and c * a / (a - 1) for the series.
    x = c * (1.0 + 10.0 ** u)
    n = math.inf if horizon is None else horizon
    threshold = c * a / (a - 1.0) if horizon is None else c * (1.0 + (1.0 - a ** -n) / (a - 1.0))
    assume(abs(x - threshold) > 1e-9 * threshold)
    # deterministic_horizon counts the periods paid from x (inf: all of them);
    # more than n of them is survival to horizon n.
    survives = deterministic_horizon(a, x, c) >= n + 1
    assert survives == (x > threshold)
    (sched,) = schedules(Constant(a), c, [n], 60)
    assert survival_lower_bound(sched, x) <= float(survives)
