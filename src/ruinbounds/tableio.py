"""CSV and JSON emission with lossless round-tripping.

Conventions shared by every output file: UTF-8 text, '.' decimal
separator, no thousands separators, infinities spelled literally as
``inf``/``-inf``, blank cells empty.  CSV files carry ``# key = value``
metadata lines above the header row; floats are written with full repr
precision so a parsed file compares equal to the in-memory values that
produced it.

A CSV read guesses each cell's type with :func:`parse_cell`:
integer-looking text becomes an ``int``, ``inf``, ``-inf``, ``nan``,
``true`` and ``false`` (any case) become their values, a blank cell
becomes ``None``, other numbers become ``float`` and anything else stays a
string.  So a string such as ``007`` or ``true`` does not come back as
written, and a float such as 3.0, written ``3``, comes back as the
integer 3.  A read cuts the file only at ``\n``, ``\r`` and ``\r\n``,
keeping the line ends, as the csv reader expects, so a quoted cell keeps
its line breaks.

Tables whose cells are all floats are formatted and parsed a column at a
time; the bytes written and the values read are those of the per-cell
rules above.
"""

from __future__ import annotations

import csv
import io
import json
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

__all__ = [
    "format_cell",
    "parse_cell",
    "read_csv_table",
    "read_json",
    "render_csv",
    "write_csv_table",
    "write_json",
]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    if v == 0.0 and math.copysign(1.0, v) < 0:
        return "-0.0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def parse_cell(text: str):
    text = text.strip()
    if text == "":
        return None
    low = text.lower()
    if low == "inf":
        return math.inf
    if low == "-inf":
        return -math.inf
    if low == "nan":
        return math.nan
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        if "." not in text and "e" not in low:
            return int(text)
        return float(text)
    except ValueError:
        return text


def _float_texts(column) -> list:
    """:func:`format_cell` of every float in ``column``, from its repr.

    ``repr`` already spells ``inf``, ``-inf``, ``nan`` and ``-0.0``; it ends
    in ``.0`` exactly when the value is integral and below 1e16.
    """
    texts = list(map(float.__repr__, column))
    if ".0\n" in "\n".join(texts) + "\n":  # one search skips the pass when none is integral
        texts = [t[:-2] if t[-2:] == ".0" and -1e15 < v < 1e15 and t != "-0.0" else t
                 for t, v in zip(texts, column)]
    return texts


def _float_columns(rows, width: int):
    """The columns of ``rows`` as lists, or None unless every cell is a float.

    ``np.float64`` subclasses ``float``; ``bool``, ``int``, ``np.float32``,
    ``str`` and ``None`` do not.  Tables with no cells, ragged rows and
    rows other than tuples and lists return None as well.
    """
    if (width == 0 or not rows or not set(map(type, rows)) <= {tuple, list}
            or set(map(len, rows)) != {width}):
        return None
    # one itemgetter pass per column: zip(*rows) would make an iterator per row
    columns = [list(map(itemgetter(j), rows)) for j in range(width)]
    for column in columns:
        if not all(issubclass(t, float) for t in set(map(type, column))):
            return None
    return columns


def _write_row(buf, writer, cells) -> None:
    """Write one CSV line ending in '\n', quoting a cell with a lone '\r' as csv quotes '\n'."""
    if any(isinstance(cell, str) and "\r" in cell for cell in cells):
        line = io.StringIO()  # csv quotes the characters of its line terminator
        csv.writer(line, lineterminator="\r\n").writerow(cells)
        buf.write(line.getvalue()[:-2] + "\n")
    else:
        writer.writerow(cells)


def render_csv(columns, rows, metadata: dict | None = None) -> str:
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        line = f"# {key} = {format_cell(value)}"
        if line.splitlines() != [line]:  # no line break of any kind, so it reads back whole
            raise ValueError(
                f"metadata {key!r} holds a line break, which a '# key = value' line cannot carry"
            )
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    _write_row(buf, writer, columns)
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    float_columns = _float_columns(rows, len(columns))
    if float_columns is None:
        for row in rows:
            _write_row(buf, writer, [format_cell(v) for v in row])
    else:
        # float texts hold no comma, quote or line break, so need no csv quoting
        texts = [_float_texts(column) for column in float_columns]
        buf.write("\n".join(map(",".join, zip(*texts))))
        buf.write("\n")
    return buf.getvalue()


def write_csv_table(path, columns, rows, metadata: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(columns, rows, metadata), encoding="utf-8")
    return path


def _read_column(cells) -> list:
    """:func:`parse_cell` of every cell, with one ``float`` per cell where that is the same.

    For a cell holding '.', 'e' or 'E', ``parse_cell`` returns ``float(cell)``
    or, when that raises, something else (``true``, ``false``, text); so a
    column of such cells parses with ``float`` until a cell raises.
    """
    if all("." in c or "e" in c or "E" in c for c in cells):
        try:
            return list(map(float, cells))
        except ValueError:
            pass
    return list(map(parse_cell, cells))


def read_csv_table(path):
    """Parse a CSV written by :func:`write_csv_table`.

    Returns ``(metadata, columns, rows)`` with cells through
    :func:`parse_cell`, each row a tuple.
    """
    metadata: dict = {}
    # cut only where csv itself would (newline=""), keeping the line ends, so
    # that a quoted cell keeps its line breaks
    with open(path, encoding="utf-8", newline="") as f:
        lines = f.readlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = parse_cell(value)
            body_start = i + 1
        else:
            break
    reader = csv.reader(lines[body_start:])
    try:
        columns = tuple(next(reader))
    except StopIteration:
        return metadata, (), []
    # tuples of str, unlike csv's row lists, leave the garbage collector's view at its first pass
    rows = list(filter(None, map(tuple, reader)))
    if set(map(len, rows)) <= {len(columns)}:  # no row, or every row as wide as the header
        cells = [list(map(itemgetter(j), rows)) for j in range(len(columns))]
        del rows
        return metadata, columns, list(zip(*map(_read_column, cells)))
    return metadata, columns, [tuple(map(parse_cell, row)) for row in rows]


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_to_jsonable(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
