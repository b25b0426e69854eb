"""Every public entry point at the edges of each family's valid parameter box.

Parameters range over the whole box a spec accepts, from the smallest
subnormal to the largest finite float, so draws underflow to 0, products
overflow to +inf and series run to the term cap.  Under the suite's
``filterwarnings = ["error"]`` a raw numpy warning fails the test.  A call
either returns a value without a NaN or raises ``DomainError``; the CLI
exits with one of its documented codes and prints no traceback.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ruinbounds import (
    Constant,
    DomainError,
    Gamma,
    Lognormal,
    Pareto,
    SimConfig,
    classify,
    crosscheck_equivalence,
    evaluate_bound,
    finite_moments,
    infinite_moments,
    replicate_stream,
    sample_Z,
    schedules,
    simulate_path,
)
from ruinbounds.cli import main

_positive = st.floats(min_value=math.ulp(0.0), max_value=np.finfo(float).max)
_finite = st.floats(allow_nan=False, allow_infinity=False)

SPECS = st.one_of(
    st.builds(Lognormal, _finite, _positive),
    st.builds(Pareto, _positive, _positive),
    st.builds(Gamma, _positive, _positive),
    st.builds(Constant, _positive),
)

RMAX = 4
HORIZONS = (1, 5, math.inf)
X_GRID = (1.5, 3.0, 1e300)


REFUSED = object()


def _value_or_domain_error(call):
    """The call's value, or ``REFUSED`` when it raises ``DomainError``."""
    try:
        return call()
    except DomainError:
        return REFUSED


def _simulate(spec, truncation):
    """Exit code of ``ruinbounds simulate`` on ``spec``; fails on an escaping exception."""
    fields = "\n".join(f"{k} = {v!r}" for k, v in spec.to_record().items() if k != "family")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "edge.ini"
        config.write_text(f"[spec:edge]\nfamily = {spec.family}\n{fields}\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["simulate", "--config", str(config), "--out", f"{tmp}/out",
                         "--replicates", "3", "--truncation", truncation])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SPECS)
@example(Pareto(0.001, 0.9))           # draws underflow to 0: zero series
@example(Pareto(1e6, 1.0000001))       # E[log shock] ~ 1e-6: past the term cap
@example(Pareto(50, 1e-300))           # draws near 1e300: products overflow
@example(Lognormal(1, 1e4))
@example(Gamma(0.05, 1))
@example(Gamma(1e-3, 1))               # gamma draws underflow: infinite shocks
@example(Constant(1e-300))
def test_entry_points_at_the_edges(spec):
    for truncation in (5, "adaptive"):
        est = _value_or_domain_error(
            lambda: sample_Z(spec, SimConfig(replicates=3, truncation=truncation, seed=1)))
        assert est is REFUSED or not np.isnan(est.samples).any()
    report = _value_or_domain_error(lambda: crosscheck_equivalence(spec, 3.0, 1.0, 5, 3, 0))
    assert report is REFUSED or report.passed
    ruin = _value_or_domain_error(
        lambda: simulate_path(spec, 3.0, 1.0, 5, replicate_stream(0, 0)))
    assert ruin in {REFUSED, None, 1, 2, 3, 4, 5}
    table = _value_or_domain_error(lambda: infinite_moments(spec, RMAX))
    assert table is REFUSED or not np.isnan(table.log_beta_values).any()
    assert not np.isnan(finite_moments(spec, RMAX, 5).log_beta_grid).any()
    scheds = _value_or_domain_error(lambda: schedules(spec, 1.0, HORIZONS, RMAX))
    if scheds is REFUSED:  # no series moments: E[log shock] <= 0
        scheds = schedules(spec, 1.0, HORIZONS[:-1], RMAX)
    for sched in scheds:
        for x in X_GRID:
            assert 0.0 <= evaluate_bound(sched, x).survival_lower <= 1.0
    classify(spec)
    for truncation in ("5", "adaptive"):
        assert _simulate(spec, truncation) in {0, 2, 3, 4}
