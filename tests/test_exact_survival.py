"""Bounds, ECDFs and moments at horizons 1 and 2 against the exact survival probability.

The one-term sum Z_1 is one reciprocal shock Y, so survival to horizon 1
from stock x is P(Y < x/c - 1), which ``oracles.exact_survival_horizon_1``
reads from each family's closed-form CDF with no code of the package.  The
two-term sum Z_2 = Y_1 (1 + Y_2) takes one quadrature over Y_2 of that CDF
(``oracles.exact_survival_horizon_2``), and its moments are
gamma_r E[(1 + Y)^r].
"""

import math

import numpy as np
import pytest
from oracles import exact_survival_horizon_1, exact_survival_horizon_2, reciprocal_expectation

from ruinbounds import (
    Constant,
    Gamma,
    Lognormal,
    SimConfig,
    ecdf_survival,
    finite_moments,
    sample_Z,
    schedule,
    survival_lower_bound,
)
from ruinbounds.reference import LOGNORMAL_HEAVY, MATCHED_TRIO, PARETO_HEAVY

SPECS = {
    **{f"trio_{k}": v for k, v in MATCHED_TRIO.items()},
    "heavy_pareto": PARETO_HEAVY,
    "heavy_lognormal": LOGNORMAL_HEAVY,
    # the specs of tests/test_golden.py's config, but for its Pareto, which is heavy_pareto
    "golden_matched": Lognormal(0.21459085740810752, 0.06453852113757118),
    "golden_shape": Gamma(17.0, 13.333333333333334),
    "golden_sure": Constant(1.5),
    "constant": Constant(1.25),
}
C = 1.0
STOCKS = np.geomspace(1.3, 15.0, 12).tolist()
RMAX = 60
REPLICATES = 20_000
SEED = 11
STANDARD_ERRORS = 4.0
# quadrature of beta_r(2) = gamma_r E[(1 + Y)^r] to 1e-10 in each factor; it
# came within 1.4e-14 of the recursion on every spec
MOMENT_RTOL = 1e-9
EXACT = {1: exact_survival_horizon_1, 2: exact_survival_horizon_2}


@pytest.fixture(scope="module", params=list(SPECS))
def spec(request):
    return SPECS[request.param]


def _exact(spec, x, horizon):
    return EXACT[horizon](spec, x / C - 1.0)


def _assert_bound_at_most_exact(spec, horizon):
    sched = schedule(finite_moments(spec, RMAX, horizon), C, horizon=horizon)
    cells = [(x, survival_lower_bound(sched, x), _exact(spec, x, horizon)) for x in STOCKS]
    assert [cell for cell in cells if cell[1] > cell[2] + 1e-12] == []


def _assert_ecdf_within_binomial_errors(spec, horizon):
    est = sample_Z(spec, SimConfig(replicates=REPLICATES, truncation=horizon, seed=SEED))
    for x in STOCKS:
        p = _exact(spec, x, horizon)
        error = math.sqrt(p * (1.0 - p) / REPLICATES)
        assert abs(ecdf_survival(est, x, C) - p) <= STANDARD_ERRORS * error, (spec, x, p)


def test_bound_at_most_exact(spec):
    _assert_bound_at_most_exact(spec, 1)


def test_bound_at_most_exact_at_horizon_2(spec):
    _assert_bound_at_most_exact(spec, 2)


def test_ecdf_within_binomial_errors_of_exact(spec):
    _assert_ecdf_within_binomial_errors(spec, 1)


def test_ecdf_within_binomial_errors_of_exact_at_horizon_2(spec):
    _assert_ecdf_within_binomial_errors(spec, 2)


def test_one_term_moments_are_the_shock_moments(spec):
    """beta_r(1) = gamma_r, bit for bit, at every order."""
    grid = finite_moments(spec, RMAX, 1)
    assert grid.log_beta_grid[:, 1].tobytes() == grid.log_gamma_values.tobytes()


def test_two_term_moments_by_quadrature(spec):
    """beta_r(2) = E[(Y_1 (1 + Y_2))^r] = gamma_r E[(1 + Y)^r], within MOMENT_RTOL."""
    grid = finite_moments(spec, RMAX, 2)
    for r in range(1, 7):
        want = (reciprocal_expectation(spec, lambda y: y ** r)
                * reciprocal_expectation(spec, lambda y: (1.0 + y) ** r))
        assert math.exp(grid.log_beta_grid[r, 2]) == pytest.approx(want, rel=MOMENT_RTOL), r
