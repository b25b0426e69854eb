"""CSV and JSON emission with lossless round-tripping.

Conventions shared by every output file: UTF-8 text, '.' decimal
separator, no thousands separators, infinities spelled literally as
``inf``/``-inf``, blank cells empty.  CSV files carry ``# key = value``
metadata lines above the header row, so a header line may not start with
``#`` (a write raises ``ValueError``).  Every float, in a cell, a metadata
line or as JSON's ``inf``, ``-inf`` or ``nan``, is written by one rule,
``_float_texts``: its ``repr``, less the ``.0`` of an integral value below
1e15 in magnitude, so a parsed file compares equal to the values written.

A CSV read guesses each cell's type with :func:`parse_cell`:
integer-looking text becomes an ``int``, ``inf``, ``-inf``, ``nan``,
``true`` and ``false`` (any case) become their values, a blank cell
becomes ``None``, other numbers become ``float`` and anything else stays a
string; a number is read only from ASCII text without ``_``, so ``1_2``
and ``١٢`` stay strings.  So a string such as ``007`` or ``true`` does not
come back as written, and a float such as 3.0, written ``3``, comes back
as the integer 3.  A read cuts the file only at ``\n``, ``\r`` and
``\r\n``, keeping the line ends, as the csv reader expects, so a quoted
cell keeps its line breaks.

Every output file, CSV or JSON, is written by one writer, whole or not
at all: the text goes to a file next to the target, which replaces the
target once it is complete, so a write that fails leaves no partial file
and an existing target as it was.  Tables are written and read
``_CHUNK_ROWS`` rows at a time, so the working memory of a write is one
chunk and that of a read one chunk beside the rows it returns.  Chunks
whose cells are all floats are formatted and parsed a column at a time;
the values read are those of the per-cell rule above.

The module does not import numpy.  A numpy scalar or array, which exists
only once numpy is loaded, is found through ``sys.modules`` and written as
its ``.tolist()``, so it gives the bytes of the equal Python value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

__all__ = [
    "format_cell",
    "parse_cell",
    "read_csv_table",
    "read_json",
    "render_csv",
    "write_csv_table",
    "write_json",
]

# Rows formatted or parsed at a time.
_CHUNK_ROWS = 1024


def _python(value):
    """A numpy scalar or array as Python values, by its ``.tolist()``; any other value as is."""
    np = sys.modules.get("numpy")  # never imported: no numpy value exists before it is
    return value.tolist() if np and isinstance(value, (np.generic, np.ndarray)) else value


def format_cell(value) -> str:
    value = _python(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    return _float_texts([float(value)])[0]


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
    if not text.isascii() or "_" in text:  # int and float would read '1_2' and '١٢' as 12
        return text
    try:
        if "." not in text and "e" not in low:
            return int(text)
        return float(text)
    except ValueError:
        return text


def _float_texts(column) -> list:
    """The text of every float in ``column``, by the one float rule of every output file.

    ``repr`` spells ``inf``, ``-inf``, ``nan`` and ``-0.0`` and ends in ``.0`` exactly for an
    integral value below 1e16; the text drops that ``.0`` below 1e15, but not from ``-0.0``.
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


def _csv_pieces(columns, rows, metadata: dict | None):
    """Yield the text of a CSV table: the metadata and header, then one piece per chunk of rows.

    Each chunk of ``_CHUNK_ROWS`` rows is formatted a column at a time when
    every cell is a float, else cell by cell; both write the same bytes.
    A metadata line break, a ``=`` in a metadata key, or a header line that
    starts with ``#`` raises before the first piece.
    """
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        line = f"# {key} = {format_cell(value)}"
        if line.splitlines() != [line]:  # no line break of any kind, so it reads back whole
            raise ValueError(
                f"metadata {key!r} holds a line break, which a '# key = value' line cannot carry"
            )
        if "=" in str(key):  # a read splits the line at its first '='
            raise ValueError(f"metadata key {key!r} holds '=', which a read takes as its end")
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = buf.tell()
    _write_row(buf, writer, columns)
    if buf.getvalue().startswith("#", header):  # a read takes that line for metadata
        raise ValueError(f"column {columns[0]!r} starts with '#', which a read takes as metadata")
    yield buf.getvalue()
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        float_columns = _float_columns(chunk, len(columns))
        if float_columns is None:
            buf.seek(0)
            buf.truncate()
            for row in chunk:
                _write_row(buf, writer, [format_cell(v) for v in row])
            yield buf.getvalue()
        else:
            # float texts hold no comma, quote or line break, so need no csv quoting
            texts = [_float_texts(column) for column in float_columns]
            yield "\n".join(map(",".join, zip(*texts))) + "\n"


def render_csv(columns, rows, metadata: dict | None = None) -> str:
    return "".join(_csv_pieces(columns, rows, metadata))


def _write_whole(path, pieces) -> Path:
    """Write the text ``pieces`` to ``path``, whole or not at all, and return ``Path(path)``.

    The text goes to a file next to the file ``path`` names, which it
    replaces once complete; a failure part-way leaves neither file behind.
    A device or a pipe, such as ``/dev/null``, is written through instead.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        return path
    target = path.resolve() if path.is_symlink() else path  # a link keeps naming its file
    partial = target.with_name(f".{target.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def write_csv_table(path, columns, rows, metadata: dict | None = None) -> Path:
    """Write the table to ``path`` whole or not at all; ``rows`` is any iterable, read once."""
    pieces = _csv_pieces(columns, rows, metadata)
    head = next(pieces)  # a metadata line break raises before any file is made
    return _write_whole(path, chain([head], pieces))


def _read_column(cells) -> list:
    """:func:`parse_cell` of every cell, with one ``float`` per cell where that is the same.

    For ASCII cells without '_' that hold '.', 'e' or 'E', ``parse_cell``
    returns ``float(cell)`` or, when that raises, something else (``true``,
    ``false``, text); so a column of such cells parses with ``float`` until
    a cell raises.
    """
    text = "".join(cells)
    if text.isascii() and "_" not in text and all("." in c or "e" in c or "E" in c for c in cells):
        try:
            return list(map(float, cells))
        except ValueError:
            pass
    return list(map(parse_cell, cells))


def read_csv_table(path):
    """Parse a CSV written by :func:`write_csv_table`.

    Returns ``(metadata, columns, rows)`` with cells through
    :func:`parse_cell`, each row a tuple.  Rows are parsed ``_CHUNK_ROWS`` at
    a time, a column at a time where a chunk is as wide as the header.
    """
    metadata: dict = {}
    # cut only where csv itself would (newline=""), keeping the line ends, so
    # that a quoted cell keeps its line breaks
    with open(path, encoding="utf-8", newline="") as f:
        for line in f:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = parse_cell(value)
        else:
            return metadata, (), []
        reader = csv.reader(chain([line], f))
        columns = tuple(next(reader))  # the line that ended the metadata makes a row, maybe []
        rows: list = []
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            chunk = [row for row in chunk if row]
            if set(map(len, chunk)) <= {len(columns)}:  # every row as wide as the header
                cells = [list(map(itemgetter(j), chunk)) for j in range(len(columns))]
                rows += zip(*map(_read_column, cells))
            else:
                rows += [tuple(map(parse_cell, row)) for row in chunk]
    return metadata, columns, rows


def _to_jsonable(obj):
    obj = _python(obj)
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return format_cell(obj)  # "inf", "-inf" or "nan"
    return obj  # json writes an int or float subclass as its plain value


def write_json(path, obj) -> Path:
    return _write_whole(path, [json.dumps(_to_jsonable(obj), indent=2, sort_keys=True) + "\n"])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
