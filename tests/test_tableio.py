import builtins
import csv
import errno
import io
import math
import os
import re
import stat
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak
from oracles import identical, per_cell_read_csv, per_cell_render_csv
from ruinbounds import Pareto, SimConfig, sample_Z, tableio
from ruinbounds.cli import main
from ruinbounds.tableio import (
    format_cell,
    parse_cell,
    read_csv_table,
    read_json,
    render_csv,
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

    def test_line_breaks_in_cells(self, tmp_path):
        path = write_csv_table(tmp_path / "t.csv", ("a", "b"), [("x\ny", 1.5), ("p\x0cq", 2)])
        assert path.read_bytes() == b'a,b\n"x\ny",1.5\np\x0cq,2\n'
        assert read_csv_table(path) == ({}, ("a", "b"), [("x\ny", 1.5), ("p\x0cq", 2)])

    def test_lone_carriage_return_in_a_cell(self, tmp_path):
        # csv.writer quotes only the characters of its '\n' line terminator
        path = write_csv_table(tmp_path / "t.csv", ("a", "b"), [("x\ry", 1.5), ("z", 2)])
        assert path.read_bytes() == b'a,b\n"x\ry",1.5\nz,2\n'
        assert read_csv_table(path) == ({}, ("a", "b"), [("x\ry", 1.5), ("z", 2)])

    def test_json_file(self, tmp_path):
        path = write_json(tmp_path / "t.json", {"zero": -0.0})
        assert _same(read_json(path)["zero"], -0.0)


# ------------------------------------------------- column paths against per-cell

EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
               1e16, -1e16, 5e-324, -5e-324, 1.0, -3.0, 0.5, 2.0 ** 53, 123456789.0]
_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(),
                    st.integers(-10 ** 17, 10 ** 17).map(float))
FLOAT_CELLS = st.one_of(_floats, _floats.map(np.float64))
TEXTS = st.one_of(st.text(), st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "x\r\ny",
                                              "x\ry", ",", '"', "007", "true", "inf", "1e5"]))
OTHER_CELLS = st.one_of(st.floats(width=32).map(np.float32), st.booleans(), st.integers(),
                        st.none(), TEXTS, st.integers(-5, 5).map(np.int64))


@pytest.fixture(scope="class")
def small_chunks():
    """Three rows a chunk: tables of up to 8 rows take several chunks, the last ragged."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableio, "_CHUNK_ROWS", 3)
        yield


@st.composite
def tables(draw):
    """``(columns, rows, metadata)``: all-float tables half of the time, some ragged."""
    width = draw(st.integers(1, 4))
    columns = tuple(draw(st.lists(TEXTS, min_size=width, max_size=width)))
    cells = draw(st.sampled_from([FLOAT_CELLS, st.one_of(FLOAT_CELLS, OTHER_CELLS)]))
    lengths = st.just(width) if draw(st.booleans()) else st.integers(0, width + 2)
    row = lengths.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)).map(tuple)
    rows = draw(st.lists(row, max_size=8))
    metadata = draw(st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
                                    st.one_of(FLOAT_CELLS, OTHER_CELLS), max_size=3))
    return columns, rows, metadata


@pytest.mark.usefixtures("small_chunks")
class TestRenderColumns:
    @given(tables(), st.sampled_from([list, tuple, iter]))
    @settings(max_examples=300)
    def test_same_bytes_as_per_cell(self, table, container):
        columns, rows, metadata = table
        try:
            want = per_cell_render_csv(columns, rows, metadata)
        except ValueError as exc:  # a metadata line break or a '#' header is rejected
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                render_csv(columns, container(rows), metadata)
            return
        assert render_csv(columns, container(rows), metadata) == want

    @pytest.mark.parametrize("rows", [
        [(1.5,), (np.float64(2.0),), ("",)],       # a lone empty string is written ""
        [(1.5, 2.5), (3.5,)],                      # ragged: no cell may be dropped
        [(1.5, 2.5), (3.5, 4.5, 5.5)],
        [(0.5, np.float32(0.5)), (True, 1)],
        [(0.5, np.float32(0.5)), (1.5, np.float32(2.0))],
        [],
    ], ids=["empty-string", "short-row", "long-row", "non-float", "float32", "no-rows"])
    def test_tables_off_the_float_path(self, rows):
        columns = ("a", "b")
        assert render_csv(columns, rows) == per_cell_render_csv(columns, rows)
        if rows and rows[-1] == ("",):
            assert render_csv(("a",), rows).endswith('\n""\n')

    @pytest.mark.parametrize("make_rows", [
        lambda: [np.array([1.5, 2.5]), np.array([3.5, 4.5])],
        lambda: [iter((1.5, 2.5)), iter((3.5, 4.5))],
        lambda: np.array([[1.5, 2.5], [3.5, 4.5]]),
    ], ids=["array-rows", "iterator-rows", "2d-array"])
    def test_rows_that_are_not_tuples_or_lists(self, make_rows):
        assert render_csv(("a", "b"), make_rows()) == per_cell_render_csv(("a", "b"), make_rows())

    def test_float_table(self):
        rows = [(v, np.float64(-v)) for v in EDGE_FLOATS]
        text = render_csv(("v", "w"), rows)
        assert text == per_cell_render_csv(("v", "w"), rows)
        assert "999999999999999,-999999999999999\n-999999999999999,999999999999999\n" in text
        assert "\n1000000000000000.0,-1000000000000000.0\n" in text
        assert "\n1e+16,-1e+16\n" in text
        assert "0,-0.0\n-0.0,0\n" in text and "nan,nan\n" in text


READ_TEXTS = ["infinity", "+inf", "Inf", "-INF", "NaN", "TRUE", "False", "1_000.5", " 7 ",
              "007", "", " ", "1e5", "1E5", "-0.0", " 2.5 ", "1.", ".5", "e", "x.y", "true.",
              "inf.0", "1e400", "0x10", "1,5", "a \"quoted\" cell"]
READ_CELLS = st.one_of(st.sampled_from(READ_TEXTS), _floats.map(format_cell), st.text())


@st.composite
def csv_texts(draw):
    """CSV text as the writer lays it out, cells drawn as text, quoted minimally or always."""
    width = draw(st.integers(1, 4))
    cells = draw(st.sampled_from([_floats.map(format_cell), READ_CELLS]))
    lengths = st.just(width) if draw(st.booleans()) else st.integers(1, width + 2)
    rows = draw(st.lists(lengths.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
                         max_size=8))
    metadata = draw(st.lists(st.sampled_from(READ_TEXTS[:-1]) | _floats.map(format_cell),
                             max_size=3))
    buf = io.StringIO()
    for i, value in enumerate(metadata):
        buf.write(f"# m{i} = {value}\n")
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow([f"c{i}" for i in range(width)])
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.usefixtures("small_chunks")
class TestReadColumns:
    @given(csv_texts())
    @settings(max_examples=300)
    def test_same_values_and_types_as_per_cell(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("read") / "t.csv"
        path.write_text(text, encoding="utf-8")
        try:
            want = per_cell_read_csv(text)
        except csv.Error:
            with pytest.raises(csv.Error):
                read_csv_table(path)
            return
        assert identical(read_csv_table(path), want)

    @pytest.mark.parametrize("column", [
        READ_TEXTS,
        ["1.5", "2e3", "1_000.5", " 7.0 ", "-inf.", "3E-2"],     # one cell makes float raise
        ["1.5", "2e3", "1_000.5", " 7.0 ", "1e400", "3E-2"],
        ["1.5", "true", "2.5"],
        ["007", " 7 ", "+inf", "infinity", ""],
        ["1.5", "\u0661.\u0665", "2e3", "1_0.5"],                # float reads all four
    ], ids=["specials", "float-raises", "all-float", "true", "no-dot", "non-ascii"])
    def test_columns(self, tmp_path, column):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerows([("a", "b"), *((cell, i) for i, cell in enumerate(column))])
        text = buf.getvalue()
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        got = read_csv_table(path)
        assert identical(got, per_cell_read_csv(text))
        assert identical([row[0] for row in got[2]], [parse_cell(c) for c in column])


# ------------------------------------------------------------------ untyped reads

def test_read_guesses_types_from_text(tmp_path):
    names = ["007", "inf", "true", "1e5", " 7 ", "plain"]
    path = write_csv_table(tmp_path / "t.csv", ("spec", "sample"),
                           [(name, 3.0) for name in names],
                           {"truncation": "10", "beta": 3.0, "seed": 5, "note": " x "})
    meta, _, rows = read_csv_table(path)
    assert identical(meta, {"truncation": 10, "beta": 3, "seed": 5, "note": "x"})
    assert identical(rows, [(v, 3) for v in (7, math.inf, True, 100000.0, 7, "plain")])


@pytest.mark.parametrize("text, metadata", [("", {}), ("# a = 1\n# b = x\n", {"a": 1, "b": "x"}),
                                            ("# a = 1", {"a": 1})])
def test_file_without_a_header_reads_as_no_table(tmp_path, text, metadata):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert read_csv_table(path) == (metadata, (), [])


@pytest.mark.parametrize("text", ["1_2", "1_0.5", "3_4", "\u0661\u0662"])
def test_numbers_only_from_ascii_without_underscores(tmp_path, text):
    # int() and float() read these as 12, 10.5, 34 and 12; a read keeps them as written
    assert parse_cell(text) == text
    path = write_csv_table(tmp_path / "t.csv", ("a", "b"), [(text, 1.5)], {"note": text})
    assert identical(read_csv_table(path), ({"note": text}, ("a", "b"), [(text, 1.5)]))


def test_classify_spec_named_with_underscore_reads_back(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[spec:1_2]\nfamily = pareto\nbeta = 0.1\nk = 0.9\n[run]\nc = 1.0\n")
    out = tmp_path / "classify.csv"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv_table(out)[2][0][0] == "1_2"


@pytest.mark.parametrize("metadata, key", [
    ({"title": "x\ny"}, "title"),
    ({"a": 1, "note": "ends\r"}, "note"),
    ({"two\nlines": 1.5}, "two\nlines"),
    ({"page": "x\x0cy"}, "page"),  # str.splitlines, which a read uses, ends a line here too
])
def test_metadata_line_break_is_rejected(tmp_path, metadata, key):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"metadata {key!r} holds a line break")):
        write_csv_table(path, ("a",), [(1.5,)], metadata)
    assert not path.exists()


@pytest.mark.parametrize("key", ["a=b", "=", "x = y"])
def test_metadata_key_holding_equals_is_rejected(tmp_path, key):
    # '# a=b = 1' would read back as {'a': 'b = 1'}
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"metadata key {key!r} holds '='")):
        write_csv_table(path, ("a",), [(1.5,)], {key: 1})
    assert not path.exists()


@pytest.mark.parametrize("columns", [("#id", "v"), ("# x = 1",), ("#",)])
def test_header_starting_with_hash_is_rejected(tmp_path, columns):
    # ('#id', 'v') would read back as metadata {'id,v': None}, with the first row as header
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"column {columns[0]!r} starts with '#'")):
        write_csv_table(path, columns, [(1, 2.5), (2, 3.5)])
    assert not path.exists()
    with pytest.raises(ValueError, match="starts with '#'"):
        render_csv(columns, [(1, 2.5)], {"a": 1})


@pytest.mark.parametrize("columns", [("a", "#b"), ("#a,b", "v"), ("#\r", "v"), (" #a", "v")])
def test_header_holding_hash_later_reads_back(tmp_path, columns):
    # a quoted or later '#' leaves the line's first character alone
    path = write_csv_table(tmp_path / "t.csv", columns, [(1, 2.5)])
    assert read_csv_table(path) == ({}, columns, [(1, 2.5)])


def test_cell_that_fails_to_format_leaves_no_file(tmp_path, monkeypatch):
    # the failing cell is in the third chunk, after two were written
    monkeypatch.setattr(tableio, "_CHUNK_ROWS", 3)
    rows = [(1.5,)] * 7 + [(object(),)]
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError):
        write_csv_table(path, ("a",), rows)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"a\n2.5\n")  # a file already there is left as it was
    with pytest.raises(TypeError):
        write_csv_table(path, ("a",), iter(rows))
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"a\n2.5\n"


def test_write_through_a_symlink_or_a_pipe(tmp_path):
    # a symlink keeps naming the file, which is replaced
    target = tmp_path / "data" / "t.csv"
    target.parent.mkdir()
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert write_csv_table(link, ("a",), [(1.5,)]) == link
    assert link.is_symlink() and target.read_bytes() == b"a\n1.5\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["t.csv"]
    # a pipe is written through, not replaced by a file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_csv_table(pipe, ("a",), [(2.5,)])
    reader.join(timeout=30)
    assert got == [b"a\n2.5\n"] and stat.S_ISFIFO(pipe.stat().st_mode)


class _FullDisk:
    """A text file that takes ``room`` characters, then raises ENOSPC as a full disk does."""

    def __init__(self, file, room):
        self._file, self._room = file, room

    def write(self, text):
        if len(text) > self._room:
            self._file.write(text[:self._room])
            self._file.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(text)
        return self._file.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"rows": list(range(50))}),
    lambda path: write_csv_table(path, ("a",), [(1.5,)] * 50),
], ids=["json", "csv"])
def test_write_that_fails_part_way_leaves_the_target_as_it_was(tmp_path, monkeypatch, write):
    path = tmp_path / "t.out"
    path.write_bytes(b"old\n")
    real_open = io.open

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _FullDisk(f, 8) if "w" in mode else f

    # open() and io.open() are one function under two names; Path.open calls the second
    monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
    monkeypatch.setattr(io, "open", open_on_a_full_disk)
    with pytest.raises(OSError) as info:
        write(path)
    monkeypatch.undo()
    assert info.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old\n"


def test_json_through_a_symlink_or_a_device(tmp_path):
    # a symlink keeps naming the file, which is replaced
    target = tmp_path / "data" / "t.json"
    target.parent.mkdir()
    target.write_bytes(b"old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert write_json(link, {"a": 1.5}) == link
    assert link.is_symlink() and target.read_bytes() == b'{\n  "a": 1.5\n}\n'
    assert sorted(p.name for p in target.parent.iterdir()) == ["t.json"]
    # a device is written through, not replaced by a file
    assert write_json(os.devnull, {"a": 1.5}) == Path(os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestBoundedMemory:
    """A write holds one chunk of rows, a read one chunk beside the rows it returns.

    Traced at 30 000 one-float rows: the write peaks at 0.37 MB (3.7 MB when
    the whole text was built first), the read at 0.27 MB above the 2.4 MB it
    returns (4.8 MB above when every line, csv row and column was held at once).
    """

    @pytest.fixture(scope="class")
    def samples(self):
        est = sample_Z(Pareto(3.0, 0.9), SimConfig(30_000, 20, 1))
        return est.samples, est.metadata()

    def test_write(self, samples, tmp_path):
        values, metadata = samples
        rows = [(v,) for v in values]
        write_csv_table(tmp_path / "warm.csv", ("sample",), rows[:10], metadata)
        path, peak, _ = traced_peak(
            lambda: write_csv_table(tmp_path / "t.csv", ("sample",), rows, metadata))
        assert peak < 1_000_000, peak
        lazy = write_csv_table(tmp_path / "lazy.csv", ("sample",), zip(values), metadata)
        assert lazy.read_bytes() == path.read_bytes()

    def test_read(self, samples, tmp_path):
        values, metadata = samples
        path = write_csv_table(tmp_path / "t.csv", ("sample",), zip(values), metadata)
        read_csv_table(write_csv_table(tmp_path / "warm.csv", ("sample",), [(1.5,)]))
        (_, columns, rows), peak, kept = traced_peak(lambda: read_csv_table(path))
        assert columns == ("sample",) and [v for v, in rows] == values.tolist()
        assert kept > 2_000_000 and peak - kept <= 2_000_000, (peak, kept)
