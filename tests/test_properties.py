"""Property tests: shock records and table cells round-trip for drawn values,
and the bound schedule's order and value behave as the Chebyshev rule says."""

import math
from dataclasses import fields
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from ruinbounds import (
    Constant,
    Gamma,
    Lognormal,
    Pareto,
    finite_moments,
    infinite_moments,
    schedule,
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
