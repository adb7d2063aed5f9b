"""Correctness comparisons used by the benchmark workloads."""

from __future__ import annotations

import csv
import math

# Two numbers agree when they differ by at most TOL, relative to the reference
# once it exceeds 1 in magnitude (the golden CSV's ratio column is 1e4).
TOL = 1e-10


def numbers_agree(value: float, reference: float) -> bool:
    if math.isnan(reference) or math.isnan(value):
        return math.isnan(reference) and math.isnan(value)
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return abs(value - reference) <= TOL * max(1.0, abs(reference))


def _as_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def cells_agree(cell: str, reference: str) -> bool:
    """CSV cells: numbers within TOL; strings, booleans and blanks exactly."""
    if cell == reference:
        return True
    a, b = _as_number(cell), _as_number(reference)
    if a is None or b is None:
        return False
    return numbers_agree(a, b)


def compare_csv_rows(header: str, rows: list[str], reference_text: str):
    """Compare sweep CSV data rows with a reference CSV, cell by cell.

    Returns ``(failed, compared, mismatches)``: one flag per reference row,
    the number of cells compared and the number that disagreed.  A row fails
    on a mismatching cell or a non-empty ``error`` cell; every row fails when
    the header or the row count differs from the reference's.
    """
    ref_header, *ref_rows = reference_text.splitlines()
    if header != ref_header or len(rows) != len(ref_rows):
        return [True] * len(ref_rows), 0, 0
    error_col = next(csv.reader([ref_header])).index("error")
    failed, compared, mismatches = [], 0, 0
    for line, ref_line in zip(rows, ref_rows):
        cells = next(csv.reader([line]))
        ref_cells = next(csv.reader([ref_line]))
        bad = len(cells) != len(ref_cells) or bool(cells[error_col])
        for cell, ref in zip(cells, ref_cells):
            compared += 1
            if not cells_agree(cell, ref):
                mismatches += 1
                bad = True
        failed.append(bad)
    return failed, compared, mismatches
