"""CSV and JSON emission with lossless round-tripping.

Conventions shared by every output file: '.' decimal separator, no
thousands separators, infinities spelled literally as ``inf``/``-inf``,
blank cells empty.  CSV files carry ``# key = value`` metadata lines above
the header row; floats are written with full repr precision so a parsed
file compares equal to the in-memory values that produced it.
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def render_csv(columns, rows, metadata: dict | None = None) -> str:
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key} = {format_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def write_csv_table(path, columns, rows, metadata: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(columns, rows, metadata))
    return path


def read_csv_table(path):
    """Parse a CSV written by :func:`write_csv_table`.

    Returns ``(metadata, columns, rows)`` with cells through
    :func:`parse_cell`.
    """
    metadata: dict = {}
    lines = Path(path).read_text().splitlines()
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
    rows = [tuple(parse_cell(cell) for cell in row) for row in reader if row]
    return metadata, columns, rows


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
    path.write_text(json.dumps(_to_jsonable(obj), indent=2, sort_keys=True) + "\n")
    return path


def read_json(path):
    return json.loads(Path(path).read_text())
