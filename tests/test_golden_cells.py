"""Every numeric cell of the program's frozen outputs against mathematics.

``bench/golden_reference.csv``, the CLI transcripts under ``tests/golden/cli``
and the golden spectra under ``tests/golden`` were written by the program, so their byte compares prove
only that the program did not change.  Here each number is recomputed by an
oracle of ``tests/oracles.py`` or a closed form in ``mpmath``, neither of which
shares a code path with either lane, and compared as ``bench/check.py``
compares: within 1e-10, relative above magnitude 1.  The spectra are compared
as ``tests/test_spectral.py`` compares them: within 1e-13 absolute.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from triqi.presets import GOLDEN_POINT, golden_sweep_spec
from triqi.states import ProtocolParams

from oracles import (exponent_reference, helstrom_reference, papersign_reference, q_reference,
                     s_star_reference, spectra_reference)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "golden_reference.csv"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_CLI = GOLDEN_DIR / "cli"
TOL = 1e-10
SPECTRUM_TOL = 1e-13

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


def _assert_agrees(name, value, reference):
    assert abs(value - reference) <= TOL * max(1.0, abs(reference)), \
        f"{name} = {value!r}, reference {reference!r}, off by {value - reference:.3e}"


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
    _assert_agrees(column, value, ORACLES[column](params))


# ---------------------------------------------------------------------------
# the CLI transcripts
# ---------------------------------------------------------------------------

# `triqi chernoff --format csv`: the command's defaults, M = 1
CHERNOFF = ProtocolParams(theta=0.1, eta=0.05, nbar2=3.0, nbar3=3.0)
# `triqi appendix-audit --theta 0.01 --eta 0.01 --nbar2 50 --nbar3 50 --background flat
# --fit-gap --format csv`
AUDIT = ProtocolParams(theta=0.01, eta=0.01, nbar2=50.0, nbar3=50.0, background="flat")


def _record(name):
    """The one CSV record on the stdout of the transcript ``name``."""
    text = (GOLDEN_CLI / f"{name}.txt").read_text()
    stdout = text.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
    header, row = csv.reader(io.StringIO(stdout))
    return dict(zip(header, row))


def _floats(cell):
    return [float(x) for x in cell.split(",")]


def _closed_form(expression):
    """``expression()`` evaluated in mpmath at 40 digits, as a float."""
    with mp.workdps(40):
        return float(expression())


def _chernoff_cases():
    cell = _record("chernoff_csv")
    p = CHERNOFF
    eta, theta, nbar = mp.mpf(p.eta), mp.mpf(p.theta), mp.mpf(p.nbar_mean)
    yield "s_star", cell["s_star"], lambda: s_star_reference(p)
    yield "q_star", cell["q_star"], lambda: q_reference(p, float(cell["s_star"]))
    yield "exponent", cell["exponent"], lambda: exponent_reference(p)
    yield "q_half", cell["q_half"], lambda: q_reference(p, 0.5)
    yield "helstrom", cell["helstrom"], lambda: helstrom_reference(p)
    for k, (s, q) in enumerate(zip(_floats(cell["q_curve.s"]), cell["q_curve.q"].split(","))):
        yield f"q_curve.q[{k}]", q, lambda s=s: q_reference(p, s)
    # kappa = sqrt(eta) and N_S = theta^2, the preset identifications
    yield "p3g", cell["p3g"], lambda: _closed_form(lambda: mp.exp(-mp.sqrt(eta) / nbar) / 2)
    yield "p2g", cell["p2g"], \
        lambda: _closed_form(lambda: mp.exp(-mp.sqrt(eta) * theta ** 2 / nbar) / 2)
    yield "ratio", cell["ratio"], lambda: _closed_form(lambda: 1 / theta ** 2)


def _audit_cases():
    cell = _record("audit_flat50_fit_gap_csv")
    p = AUDIT
    yield "t_paper", cell["t_paper"], \
        lambda: _closed_form(lambda: 1 - mp.sqrt(mp.mpf(p.eta)) / mp.mpf(p.nbar_mean))
    yield "t_papersign", cell["t_papersign"], lambda: papersign_reference(p)
    yield "t_principal", cell["t_principal"], lambda: q_reference(p, 0.5)
    # the gap is principal minus signed along the fit's eta ladder
    for k, (eta, gap) in enumerate(zip(_floats(cell["gap.etas"]), cell["gap.values"].split(","))):
        rung = p.with_updates(eta=eta)
        yield f"gap.values[{k}]", gap, \
            lambda rung=rung: q_reference(rung, 0.5) - papersign_reference(rung)


def _cli_cases():
    for name, cases in (("chernoff_csv", _chernoff_cases),
                        ("audit_flat50_fit_gap_csv", _audit_cases)):
        for column, value, reference in cases():
            yield pytest.param(column, float(value), reference, id=f"{name}-{column}")


@pytest.mark.parametrize("column, value, reference", list(_cli_cases()))
def test_cli_golden_cell_matches_oracle(column, value, reference):
    _assert_agrees(column, value, reference())


# ---------------------------------------------------------------------------
# the golden spectra of GOLDEN_POINT
# ---------------------------------------------------------------------------

def _spectrum_cases():
    for k, name in enumerate(("h0", "h1")):
        golden = np.loadtxt(GOLDEN_DIR / f"{name}_spectrum_golden.txt")
        for i, value in enumerate(golden):
            yield pytest.param(k, i, float(value), id=f"{name}[{i}]")


@pytest.mark.parametrize("hypothesis, index, value", list(_spectrum_cases()))
def test_golden_spectrum_entry_matches_oracle(hypothesis, index, value):
    spectrum = spectra_reference(GOLDEN_POINT)[hypothesis]
    assert len(spectrum) == 72
    reference = spectrum[index]
    assert abs(value - reference) <= SPECTRUM_TOL, \
        f"h{hypothesis}[{index}] = {value!r}, reference {reference!r}, " \
        f"off by {value - reference:.3e}"
