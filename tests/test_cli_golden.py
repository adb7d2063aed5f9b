"""The CLI output contract: fixed commands whose stdout, stderr and exit code
are frozen byte for byte under ``tests/golden/cli/``, and the stdout of every
``reproduce`` preset, frozen as its CSV.

A change that means to move these bytes regenerates the files with
``PYTHONPATH=src python tests/test_cli_golden.py``; the diff then shows every
byte it moved.
"""

import contextlib
import io
from pathlib import Path

import pytest

from triqi import cli
from triqi.cli import main
from triqi.presets import REPRODUCTIONS

GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"

COMMANDS = {
    "state_default": ["state"],
    "state_theta0": ["state", "--theta", "0"],
    "state_theta0_cutoff40_chain32": ["state", "--theta", "0", "--cutoff", "40",
                                      "--chain-cutoff", "32"],
    "state_cutoff40_chain32": ["state", "--theta", "0.1", "--cutoff", "40",
                               "--chain-cutoff", "32"],
    "chernoff_text": ["chernoff"],
    "chernoff_csv": ["chernoff", "--format", "csv"],
    "audit_flat50_fit_gap_csv": ["appendix-audit", "--theta", "0.01", "--eta", "0.01",
                                 "--nbar2", "50", "--nbar3", "50", "--background", "flat",
                                 "--fit-gap", "--format", "csv"],
}


def transcript(argv):
    """The command line, exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ triqi {' '.join(argv)}\n--- exit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_frozen(name):
    assert transcript(COMMANDS[name]) == (GOLDEN_CLI / f"{name}.txt").read_text()


def test_main_builds_its_parser_once(monkeypatch):
    # one parser serves every in-process call; neither parsing nor a usage
    # error changes what it prints
    build, builds = cli.build_parser, []

    def counted():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        first = {name: transcript(argv) for name, argv in COMMANDS.items()}
        usage = transcript(["chernoff", "--tol", "1"])
        second = {name: transcript(argv) for name, argv in COMMANDS.items()}
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert "--- exit 1\n" in usage and "unrecognized arguments: --tol 1" in usage
    for name in COMMANDS:
        golden = (GOLDEN_CLI / f"{name}.txt").read_text()
        assert first[name] == golden and second[name] == golden, name
    assert build() is not build()


def reproduce_stdout(preset):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reproduce", preset]) == 0
    return out.getvalue()


@pytest.mark.parametrize("preset", sorted(REPRODUCTIONS))
def test_reproduce_matches_its_golden(preset, capsys):
    assert reproduce_stdout(preset) == (GOLDEN_CLI / f"reproduce_{preset}.csv").read_text()
    assert capsys.readouterr().err == ""


if __name__ == "__main__":
    GOLDEN_CLI.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN_CLI / f"{name}.txt").write_text(transcript(argv))
    for preset in REPRODUCTIONS:
        (GOLDEN_CLI / f"reproduce_{preset}.csv").write_text(reproduce_stdout(preset))
