"""Property tests: shock records and table cells round-trip for drawn values."""

import math
from dataclasses import fields

from hypothesis import given, strategies as st

from ruinbounds import Constant, Gamma, Lognormal, Pareto, spec_from_record
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
