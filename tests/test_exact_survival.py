"""Bounds, ECDFs and moments at horizon 1 against the exact survival probability.

The one-term sum Z_1 is one reciprocal shock Y, so survival to horizon 1
from stock x is P(Y < x/c - 1), which ``oracles.exact_survival_horizon_1``
reads from each family's closed-form CDF with no code of the package.
"""

import math

import numpy as np
import pytest
from oracles import exact_survival_horizon_1

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


@pytest.fixture(scope="module", params=list(SPECS))
def spec(request):
    return SPECS[request.param]


def _exact(spec, x):
    return exact_survival_horizon_1(spec, x / C - 1.0)


def test_bound_at_most_exact(spec):
    sched = schedule(finite_moments(spec, RMAX, 1), C, horizon=1)
    cells = [(x, survival_lower_bound(sched, x), _exact(spec, x)) for x in STOCKS]
    assert [cell for cell in cells if cell[1] > cell[2] + 1e-12] == []


def test_ecdf_within_binomial_errors_of_exact(spec):
    est = sample_Z(spec, SimConfig(replicates=REPLICATES, truncation=1, seed=SEED))
    for x in STOCKS:
        p = _exact(spec, x)
        error = math.sqrt(p * (1.0 - p) / REPLICATES)
        assert abs(ecdf_survival(est, x, C) - p) <= STANDARD_ERRORS * error, (spec, x, p)


def test_one_term_moments_are_the_shock_moments(spec):
    """beta_r(1) = gamma_r, bit for bit, at every order."""
    grid = finite_moments(spec, RMAX, 1)
    assert grid.log_beta_grid[:, 1].tobytes() == grid.log_gamma_values.tobytes()
