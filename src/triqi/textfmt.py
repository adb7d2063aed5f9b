"""Plain-text serialization: key=value records and CSV tables.

Floats are written with 17 significant digits, which round-trips exactly
through ``float()``; emission is deterministic so repeated runs of one build
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def parse_value(text: str):
    """Best-effort typed parse: bool, int, float, else the raw string."""
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def format_record(record: dict) -> str:
    lines = [f"{key} = {format_value(value)}" for key, value in record.items()]
    return "\n".join(lines) + "\n"


def parse_key_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of ``text`` as raw strings; blank lines and
    ``#`` comments are skipped, and a key may appear once."""
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {seen[key][0]}")
        seen[key] = lineno, value.strip()
    return {key: value for key, (_, value) in seen.items()}


def parse_record(text: str) -> dict:
    """:func:`parse_key_values` with every value typed by :func:`parse_value`."""
    return {key: parse_value(value) for key, value in parse_key_values(text).items()}


def format_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return [], []
    return rows[0], [[parse_value(cell) for cell in row] for row in rows[1:]]
