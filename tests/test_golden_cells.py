"""Every numeric cell of ``bench/golden_reference.csv`` against mathematics.

The file was written by the program, so its byte compares prove only that the
program did not change.  Here each cell is recomputed by an oracle of
``tests/oracles.py`` that shares no code path with either lane, and compared
as ``bench/check.py`` compares: within 1e-10, relative above magnitude 1.
"""

import csv
from pathlib import Path

import pytest

from triqi.presets import golden_sweep_spec

from oracles import exponent_reference, helstrom_reference, papersign_reference, q_reference

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "golden_reference.csv"
TOL = 1e-10

ORACLES = {
    "exponent": exponent_reference,
    "q_half": lambda params: q_reference(params, 0.5),
    "helstrom": helstrom_reference,
    "t_papersign": papersign_reference,
    "t_principal": lambda params: q_reference(params, 0.5),
    "ratio": lambda params: 1.0 / params.theta ** 2,
}

# ROADMAP item 13: the structured lane drops real background mass from rho1's
# support; at thermal eta = 0.01, nbar = 50 that moves these cells by 3.1e-10
SUPPORT_DEFECT = {("0.01", "50", "thermal", column)
                  for column in ("exponent", "q_half", "t_principal")}


def _cases():
    header, *rows = csv.reader(REFERENCE.read_text().splitlines())
    for row in rows:
        cell = dict(zip(header, row))
        label = (cell["eta"], cell["nbar"], cell["background"])
        for column in ORACLES:
            marks = [pytest.mark.xfail(strict=True, reason="ROADMAP item 13: support defect")] \
                if (*label, column) in SUPPORT_DEFECT else []
            yield pytest.param(label, column, float(cell[column]), marks=marks,
                               id=f"eta{label[0]}-nbar{label[1]}-{label[2]}-{column}")


@pytest.mark.parametrize("label, column, value", list(_cases()))
def test_golden_reference_cell_matches_oracle(label, column, value):
    eta, nbar, background = label
    params = golden_sweep_spec().fixed.with_updates(
        eta=float(eta), nbar2=float(nbar), nbar3=float(nbar), background=background)
    reference = ORACLES[column](params)
    assert abs(value - reference) <= TOL * max(1.0, abs(reference)), \
        f"{column} = {value!r}, reference {reference!r}, off by {value - reference:.3e}"
