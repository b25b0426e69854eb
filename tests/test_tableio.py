import math

import numpy as np
import pytest

from ruinbounds.tableio import (
    format_cell,
    parse_cell,
    read_csv_table,
    read_json,
    write_csv_table,
    write_json,
)

FLOATS = [0.0, -0.0, 1.0, -3.0, 0.1, -2.5e-300, 5e-324, 1e300, 1e15, -1e16,
          math.inf, -math.inf]


def _same(a, b) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestNegativeZero:
    def test_format(self):
        assert format_cell(-0.0) == "-0.0"
        assert format_cell(np.float64(-0.0)) == "-0.0"
        assert format_cell(0.0) == "0"

    def test_parse_keeps_sign(self):
        assert _same(parse_cell(format_cell(-0.0)), -0.0)


class TestRoundTrip:
    @pytest.mark.parametrize("value", FLOATS, ids=repr)
    def test_cell(self, value):
        assert _same(float(parse_cell(format_cell(value))), value)

    def test_csv_file(self, tmp_path):
        path = write_csv_table(tmp_path / "t.csv", ("v",), [(v,) for v in FLOATS],
                               {"zero": -0.0})
        metadata, columns, rows = read_csv_table(path)
        assert columns == ("v",)
        assert _same(metadata["zero"], -0.0)
        for (got,), want in zip(rows, FLOATS):
            assert _same(float(got), want)

    def test_json_file(self, tmp_path):
        path = write_json(tmp_path / "t.json", {"zero": -0.0})
        assert _same(read_json(path)["zero"], -0.0)
