import argparse
import ast
import csv
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import triqi
from triqi import bounds, cli, fock, overlap_audit, spectral, states, sweep
from triqi.bounds import evaluate_point
from triqi.cli import build_parser, main
from triqi.errors import RegimeWarning
from triqi.overlap_audit import audit_overlap
from triqi.presets import GOLDEN_POINT, REPRODUCTIONS, golden_sweep_spec
from triqi.states import ProtocolParams
from triqi.sweep import SweepSpec, SweepTable, render, run_sweep
from triqi.textfmt import format_float, format_record, parse_csv, parse_record

FIXED = ProtocolParams(theta=0.01, eta=1e-3, nbar2=20.0, nbar3=20.0, background="flat")


def small_spec(**kwargs):
    defaults = dict(axes=(("eta", (1e-3, 1e-2)),), fixed=FIXED,
                    outputs=("exponent", "q_half", "ratio"))
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_float_format_round_trip():
    for x in (0.1, 1 / 3, 1e-300, 123456.789e12, -0.0, 2.2699964881242427e-05):
        assert float(format_float(x)) == x


def test_record_round_trip():
    rec = {"a": 1.5, "b": True, "c": "text", "d": [1.0, 2.0]}
    parsed = parse_record(format_record(rec))
    assert parsed["a"] == 1.5
    assert parsed["b"] is True
    assert parsed["c"] == "text"


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axes=(("bogus", (1.0,)),), fixed=FIXED)
    with pytest.raises(ValueError):
        SweepSpec(axes=(("eta", ()),), fixed=FIXED)
    with pytest.raises(ValueError):
        SweepSpec(axes=(("eta", tuple(np.linspace(0, 0.09, 400))),
                        ("theta", tuple(np.linspace(0.01, 0.09, 400)))), fixed=FIXED)
    with pytest.raises(ValueError):
        small_spec(outputs=("nonsense",))
    for axis in (("eta", (1e-3, None)), ("theta", (0.1, True)), ("nbar", ("20",)),
                 ("background", ("flat", 1.0)), ("idler", (None,))):
        with pytest.raises(ValueError, match=f"axis '{axis[0]}' takes"):
            small_spec(axes=(axis,))


def test_spec_from_mapping():
    text = {
        "theta": "0.01", "eta": "0.001", "nbar2": "20", "nbar3": "20",
        "background": "flat", "axis.eta": "0.001,0.01",
        "axis.background": "thermal,flat", "outputs": "exponent,q_half",
        "format": "csv", "M": "10",
    }
    spec = SweepSpec.from_mapping(text)
    assert spec.axes[0] == ("eta", (0.001, 0.01))
    assert spec.axes[1] == ("background", ("thermal", "flat"))
    assert spec.m_shots == 10
    assert spec.n_points == 4


def test_sweep_eta_zero_gives_zero_exponent():
    spec = small_spec(axes=(("eta", (0.0,)),))
    table = run_sweep(spec)
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["exponent"]) < 1e-12
    assert row["error"] == ""


def test_sweep_n_signal_axis_gives_ratio_column():
    spec = small_spec(axes=(("n_signal", (0.01, 0.1)),), outputs=("ratio",))
    table = run_sweep(spec)
    ratios = [dict(zip(table.columns, r))["ratio"] for r in table.rows]
    assert ratios[0] == pytest.approx(100.0, abs=1e-12)
    assert ratios[1] == pytest.approx(10.0, abs=1e-12)


def test_sweep_rows_match_single_shot_calls():
    spec = small_spec(outputs=("exponent", "q_half", "helstrom", "t_papersign", "t_principal"))
    table = run_sweep(spec)
    for row in table.rows:
        d = dict(zip(table.columns, row))
        params = FIXED.with_updates(eta=d["eta"])
        report = evaluate_point(params)
        audit = audit_overlap(params)
        assert d["exponent"] == report.chernoff_exponent
        assert d["q_half"] == report.bhattacharyya_q
        assert d["helstrom"] == report.helstrom_error
        assert d["t_papersign"] == audit.signed_root
        assert d["t_principal"] == audit.principal


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` wherever a triqi module binds it; returns the call list."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (states, fock, spectral, bounds, overlap_audit, sweep):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_row_builds_its_pair_once(monkeypatch):
    builds = _count_calls(monkeypatch, states, "build_hypothesis_pair")
    conversions = _count_calls(monkeypatch, fock, "as_diag_plus_low_rank")
    spectra = _count_calls(monkeypatch, spectral, "rank_one_spectrum")
    fixed = ProtocolParams(theta=0.01, eta=1e-3, nbar2=3.0, nbar3=3.0, cutoffs=(2, 6, 6),
                           background="thermal", tail_bound=float("inf"))
    spec = SweepSpec(axes=(("eta", (1e-3,)),), fixed=fixed,
                     outputs=("exponent", "q_half", "helstrom", "t_papersign", "t_principal"))
    table = run_sweep(spec)
    assert dict(zip(table.columns, table.rows[0]))["error"] == ""
    # one pair built from its marginals with no structure conversion, the
    # Q_s and the Helstrom spectrum
    assert (len(builds), len(conversions), len(spectra)) == (1, 0, 2)


def test_golden_sweep_secular_iterations(monkeypatch):
    spectra = []
    original = spectral.rank_one_spectrum

    def recorded(*args):
        spectra.append(original(*args))
        return spectra[-1]

    monkeypatch.setattr(spectral, "rank_one_spectrum", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        run_sweep(golden_sweep_spec())
    # a Q_s and a Helstrom spectrum per row; the golden sweep needs at most
    # 4 evaluations per root
    assert len(spectra) == 16
    assert max(max(s.iterations) for s in spectra) < 2 * 4


def test_import_and_golden_sweep_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing scipy costs more than
    # a whole golden sweep, and only the test oracles use it.  The dense lane
    # splits matrices into components without scipy's graph search.
    argv = ["sweep", "--config", "golden", "--out", str(tmp_path / "g.csv")]
    code = (
        "import sys\n"
        "import triqi, triqi.cli\n"
        "from triqi import bounds, presets, states\n"
        "from triqi.fock import DensityOperator\n"
        "print([k for k in sys.modules if k.startswith('scipy')])\n"
        f"assert triqi.cli.main({argv!r}) == 0\n"
        "print([k for k in sys.modules if k.startswith('scipy')])\n"
        "pair = states.build_hypothesis_pair(presets.DENSE_CHECK_POINTS[4])\n"
        "d0, d1 = (DensityOperator.dense(r.space, r.to_dense()) for r in (pair.rho0, pair.rho1))\n"
        "assert 0 < bounds.chernoff(d0, d1).q_star < 1\n"
        "assert 0 < bounds.helstrom_optimum(d0, d1) < 0.5\n"
        "print([k for k in sys.modules if k.startswith('scipy')])\n")
    src = str(Path(triqi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
    assert (tmp_path / "g.csv").read_text().startswith("eta,")


def test_golden_sweep_runs_without_the_test_extras():
    # pyproject.toml's runtime dependencies are numpy only; the test extras
    # are installed next to it, so block them as an install without them
    # would have them (a None entry in sys.modules fails the import)
    code = ("import sys\n"
            "for name in ('scipy', 'mpmath', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "from triqi.cli import main\n"
            "raise SystemExit(main(['sweep', '--config', 'golden']))\n")
    src = str(Path(triqi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    columns, rows = parse_csv(proc.stdout)
    assert len(rows) == 8 and columns[0] == "eta"


def test_no_module_imports_scipy_and_numpy_is_the_only_dependency():
    for path in sorted(Path(triqi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert all(m.split(".")[0] != "scipy" for m in modules), f"{path.name}:{node.lineno}"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    runtime, test = ([re.match(r"[\w.-]+", dep).group() for dep in deps]
                     for deps in (project["dependencies"], project["optional-dependencies"]["test"]))
    assert runtime == ["numpy"]
    assert "scipy" in test


def test_no_module_reads_an_environment_variable():
    # the command line and the config files are the program's whole input
    names = {"environ", "getenv", "putenv"}
    for path in sorted(Path(triqi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                found = isinstance(node.value, ast.Name) and node.value.id == "os" \
                    and node.attr in names
            else:
                found = isinstance(node, ast.ImportFrom) \
                    and any(alias.name in names for alias in node.names)
            assert not found, f"{path.name}:{node.lineno}"


def test_public_names_resolve_and_removed_names_are_gone():
    missing = [name for name in triqi.__all__ if not hasattr(triqi, name)]
    assert missing == [] and len(set(triqi.__all__)) == len(triqi.__all__)
    removed = [(triqi, "background_state"), (states, "background_state"),
               (states, "idler_ket"), (states.EvolvedState, "closed_form"),
               (fock, "TensorProduct"), (fock, "factor_eigensystems"),
               (fock.DensityOperator, "product"), (fock.DensityOperator, "trace_normalized"),
               (fock.DensityOperator, "eigensystem"), (spectral, "eigvalsh_difference"),
               (fock, "tensor_ket"), (fock, "Ket"), (fock, "NORM_TOL"),
               (fock.DensityOperator, "from_ket"), (fock, "partial_trace"),
               (fock.SpaceDescriptor, "subspace"), (fock, "Diagonal"),
               (fock.DensityOperator, "diagonal"), (states, "thermal_state"),
               (states, "hypothesis_h0"), (states, "hypothesis_h1"), (bounds, "povm_error"),
               (bounds, "eigvalsh")]
    removed += [(fock.SpaceDescriptor, name) for name in ("index_of", "occupations_of",
                                                          "mode_occupations", "_check_mode")]
    removed += [(states, "three_photon_state"), (states, "mean_photon_number")]
    removed += [(triqi, name) for name in ("tensor_ket", "partial_trace", "thermal_state",
                                           "hypothesis_h0", "hypothesis_h1", "povm_error",
                                           "Ket", "three_photon_state", "mean_photon_number")]
    removed += [(overlap_audit, "SignChoice"), (overlap_audit, "SELECTED_SIGNS"),
                (overlap_audit.TraceAudit, "signs"), (states, "load_params"),
                (states.ProtocolParams, "dense_limit"), (sweep, "read_table"),
                (triqi, "SignChoice"), (triqi, "load_params"),
                (states.HypothesisPair, "with_eta"), (overlap_audit, "_background_levels"),
                (cli, "GOLDEN_DIR_ENV"), (fock, "same_rotations"), (fock, "ROTATION_TOL"),
                (sweep, "emit"), (triqi, "emit"), (fock.DensityOperator, "trace"),
                (fock.DensityOperator, "validate"), (fock.DensityOperator, "_check_diag_psd"),
                (fock, "HERMITIAN_TOL"), (fock, "PSD_TOL"), (fock, "TRACE_TOL"),
                (spectral, "eigvalsh"), (fock.DensityOperator, "diag_plus_low_rank"),
                (fock.DensityOperator, "nonzero_pattern"), (fock.SpaceDescriptor, "modes"),
                (spectral.StructuredPair, "dim")]
    assert [name for owner, name in removed if hasattr(owner, name)] == []
    # a structured operator is one hypothesis of a build: one pair, one idler
    # rotation, no rotation per mode
    assert [f.name for f in dataclasses.fields(fock.DiagPlusLowRank)] == [
        "pair", "idler_rotation", "hypothesis"]
    # the audit's sign choice, the point's dense limit and the presets' knobs
    # went with them
    for func in (overlap_audit.signed_root_overlap, overlap_audit._signed_root_terms,
                 overlap_audit.gap_leading_order, overlap_audit.audit_overlap):
        assert "signs" not in inspect.signature(func).parameters
    assert "dense_limit" not in {f.name for f in dataclasses.fields(ProtocolParams)}
    # the evolved state keeps the chain, not a ket over the chain_cutoff**3 Fock states
    assert [f.name for f in dataclasses.fields(states.EvolvedState)] == [
        "theta", "chain_amplitudes", "leakage"]
    assert [name for name, f in REPRODUCTIONS.items() if inspect.signature(f).parameters] == []
    assert not (Path(__file__).resolve().parents[1] / "configs" / "golden_point.cfg").exists()


def _options(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings}


def test_cli_option_surface(capsys, tmp_path):
    point = {"-h", "--help", "--theta", "--nbar2", "--nbar3", "--cutoff", "--background",
             "--tail-bound", "--out"}
    pair = point | {"--eta", "--idler", "--strict", "--format"}
    parser = build_parser()
    assert _options(parser, "state") == point | {"--chain-cutoff"}
    assert _options(parser, "chernoff") == pair | {"--tol", "--M"}
    assert _options(parser, "appendix-audit") == pair | {"--fit-gap"}
    table = {"-h", "--help", "--out", "--format"}
    assert _options(parser, "sweep") == table | {"--config", "--strict"}
    assert _options(parser, "reproduce") == table
    # flags a subcommand used to accept without reading them are usage errors now
    removed = {"state": (["--eta", "0.7"], ["--idler", "traced"], ["--tol", "9"], ["--strict"],
                         ["--format", "csv"], ["--dense-limit", "1"]),
               "appendix-audit": (["--tol", "9"], ["--dense-limit", "1"]),
               "chernoff": (["--dense-limit", "1"],),
               "sweep --config golden": (["--golden", "x"], ["--workers", "2"]),
               "reproduce factor100": (["--strict"], ["--write-golden"])}
    for command, flags in removed.items():
        for flag in flags:
            assert main([*command.split(), *flag]) == 1, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("theta = 0.01\neta = 0.001\nnbar2 = 20\nnbar3 = 20\n"
                   "background = flat\ndense_limit = 1\naxis.eta = 0.001\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "unknown parameter keys: ['dense_limit']" in capsys.readouterr().err


def test_worker_count_and_duplicate_names_have_one_way_in(capsys, tmp_path):
    # the pool is chosen from Python only, SweepSpec(..., workers=N); the
    # --workers flag is in test_cli_option_surface's removed flags
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("theta = 0.01\neta = 0.001\nnbar2 = 20\nnbar3 = 20\n"
                   "background = flat\nworkers = 2\naxis.eta = 0.001\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "invalid arguments: unknown parameter keys: ['workers']\n"
    for build in (SweepSpec.from_file, SweepSpec.from_mapping):
        assert list(inspect.signature(build).parameters) in (["path"], ["values"])
    assert not hasattr(overlap_audit.TraceAudit, "match_tolerance")
    assert not hasattr(states, "parse_key_values")


def test_nan_and_infinite_closed_form_inputs_fail_the_sweep_row():
    # NaN fails every comparison, so it used to pass the range checks and
    # print nan with an empty error cell
    for call in (lambda: bounds.error_bound_2gamma(math.nan, 0.01, 10.0, 1),
                 lambda: bounds.error_bound_2gamma(math.inf, 0.01, 10.0, 1),
                 lambda: bounds.error_bound_2gamma(0.1, math.inf, 10.0, 1),
                 lambda: bounds.error_bound_3gamma(0.01, 10.0, math.nan),
                 lambda: bounds.advantage_ratio(math.nan)):
        with pytest.raises(ValueError, match="got .*(nan|inf)"):
            call()
    spec = SweepSpec.from_mapping({"theta": "0.01", "eta": "0.001", "nbar2": "20",
                                   "nbar3": "20", "background": "flat",
                                   "axis.kappa": "nan,inf,0.1", "outputs": "p2g,ratio"})
    rows = run_sweep(spec).rows
    for row, value in zip(rows[:2], ("nan", "inf")):
        assert row[1:3] == (None, None)
        assert row[-1].startswith("ValueError: ") and f"kappa={value}" in row[-1]
    assert rows[2][-1] == "" and rows[2][1] > 0


def test_shot_count_must_be_an_integer_of_at_least_one(capsys, tmp_path):
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="shot count must be >= 1"):
            evaluate_point(GOLDEN_POINT, m_shots=bad)
    assert main(["chernoff", "--M", "0"]) == 1
    assert "shot count must be >= 1" in capsys.readouterr().err
    # int(1.5) and int(true) would evaluate M = 1 under another label
    for line in ("axis.M = 1.5", "axis.M = 1,true", "M = 0"):
        cfg = tmp_path / "shots.cfg"
        cfg.write_text("theta = 0.01\neta = 0.001\nnbar2 = 20\nnbar3 = 20\n"
                       f"background = flat\n{line}\n")
        with pytest.raises(ValueError, match="shot count must be >= 1"):
            SweepSpec.from_file(cfg)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "shot count must be >= 1" in capsys.readouterr().err
    # a count above the largest float overflowed M * sqrt(eta) in the 3-photon bound
    huge = str(2 * 10 ** 308)
    assert len(huge) == 309 and int(huge) > sys.float_info.max
    assert main(["chernoff", "--M", huge]) == 1
    assert "shot count must be at most 1.7976931348623157e+308" in capsys.readouterr().err
    for line in (f"M = {huge}", f"axis.M = 1,{huge}"):
        cfg = tmp_path / "shots.cfg"
        cfg.write_text("theta = 0.01\neta = 0.001\nnbar2 = 20\nnbar3 = 20\n"
                       f"background = flat\n{line}\n")
        with pytest.raises(ValueError, match="shot count must be at most"):
            SweepSpec.from_file(cfg)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "shot count must be at most" in capsys.readouterr().err


def test_sweep_row_types_linalg_and_memory_failures(monkeypatch):
    original = sweep.build_hypothesis_pair

    def failing(params):
        if params.eta == 3e-3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if params.eta == 1e-2:
            raise MemoryError("cannot allocate 16 GiB")
        return original(params)

    monkeypatch.setattr(sweep, "build_hypothesis_pair", failing)
    table = run_sweep(small_spec(axes=(("eta", (1e-3, 3e-3, 1e-2)),)))
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    assert rows[0]["error"] == "" and rows[0]["exponent"] is not None
    assert rows[1]["error"] == "NumericalError: linear algebra failure: Eigenvalues did not converge"
    assert rows[2]["error"] == "ResourceError: out of memory: cannot allocate 16 GiB"
    assert rows[1]["exponent"] is None and rows[2]["q_half"] is None


def test_sweep_error_column_keeps_going():
    bad_fixed = ProtocolParams(theta=0.01, eta=1e-3, nbar2=20.0, nbar3=20.0,
                               background="flat", cutoffs=(2, 5, 5))
    spec = SweepSpec(axes=(("eta", (1e-3,)), ("nbar", (4.0, 20.0))),
                     fixed=bad_fixed, outputs=("exponent",))
    table = run_sweep(spec)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    assert rows[0]["error"] == ""          # nbar=4 fits in cutoff 5
    assert rows[1]["error"] != ""          # flat nbar=20 needs cutoff >= 20
    assert rows[1]["exponent"] is None
    assert rows[0]["exponent"] is not None


def test_sweep_records_non_finite_theta_in_error_cell():
    spec = small_spec(axes=(("theta", (0.01, float("nan"))),), outputs=("exponent", "helstrom"))
    table = run_sweep(spec)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("ValueError: theta must be finite")
    assert rows[1]["exponent"] is None and rows[1]["helstrom"] is None


def test_sweep_worker_pool_preserves_order():
    spec = small_spec(axes=(("eta", (1e-3, 3e-3, 1e-2)),))
    serial = run_sweep(spec)
    pooled = run_sweep(small_spec(axes=(("eta", (1e-3, 3e-3, 1e-2)),), workers=3))
    assert serial == pooled


def test_emit_empty_and_single_row(tmp_path):
    empty = SweepTable(("a", "b"), ())
    path = tmp_path / "empty.csv"
    path.write_text(render(empty, "csv"))
    assert path.read_text() == "a,b\n"
    one = SweepTable(("a", "b"), ((1.0, "x"),))
    path2 = tmp_path / "one.csv"
    path2.write_text(render(one, "csv"))
    assert len(path2.read_text().splitlines()) == 2


def test_emit_round_trip_exact(tmp_path):
    spec = small_spec(outputs=("exponent", "q_half", "helstrom",
                               "t_papersign", "t_principal", "ratio"))
    table = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    path.write_text(render(table, "csv"))
    columns, rows = parse_csv(path.read_text())
    assert tuple(columns) == table.columns
    for row, orig in zip(rows, table.rows):
        for cell, ocell in zip(row, orig):
            if ocell is None or ocell == "":
                assert cell in (None, "")
            else:
                assert cell == ocell


def test_cli_sweep_out_io_error_names_path(capsys, tmp_path):
    assert main(["sweep", "--config", "golden", "--out", "/no/such/dir/out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "/no/such/dir/out.csv" in err
    # so does a directory given as the output file
    assert main(["state", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("i/o failure: ")


def test_cli_out_naming_a_directory_fails_before_evaluating(capsys, monkeypatch, tmp_path):
    builds = _count_calls(monkeypatch, states, "build_hypothesis_pair")
    assert main(["sweep", "--config", "golden", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"i/o failure: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert builds == []


@pytest.mark.parametrize("below", [["out.csv"], ["sub", "out.csv"]], ids=["parent", "ancestor"])
def test_cli_out_under_a_file_fails_as_the_write_would(below, capsys, monkeypatch, tmp_path):
    # a file where --out needs a directory: the write raises ENOTDIR, and so
    # does the check before anything is evaluated
    builds = _count_calls(monkeypatch, states, "build_hypothesis_pair")
    (tmp_path / "file").write_text("")
    out = tmp_path.joinpath("file", *below)
    with pytest.raises(NotADirectoryError) as write:
        open(out, "w")
    assert main(["sweep", "--config", "golden", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"i/o failure: {write.value}\n"
    assert builds == []


@pytest.mark.parametrize("argv", [["sweep", "--config", "golden"], ["chernoff"],
                                  ["appendix-audit"], ["state"], ["reproduce", "factor100"]],
                         ids=lambda argv: argv[0])
def test_cli_out_into_missing_directory_fails_before_evaluating(argv, tmp_path, capsys,
                                                               monkeypatch):
    builds = []
    original = states.build_hypothesis_pair

    def counting(params):
        builds.append(params)
        return original(params)

    for module in (states, sweep):
        monkeypatch.setattr(module, "build_hypothesis_pair", counting)
    out = tmp_path / "missing" / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"i/o failure: [Errno 2] No such file or directory: '{out}'\n"
    assert builds == [] and not out.parent.exists()


def test_sweep_deterministic_bytes():
    spec = small_spec()
    first = render(run_sweep(spec), "csv")
    second = render(run_sweep(spec), "csv")
    assert first.encode() == second.encode()


def _cell_agrees(cell: str, reference: str) -> bool:
    """Numbers within 1e-10, relative above magnitude 1; other cells exactly."""
    try:
        value, ref = float(cell), float(reference)
    except ValueError:
        return cell == reference
    if math.isnan(ref) or math.isinf(ref):
        return cell == reference
    return abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


def test_golden_sweep_matches_reference_csv():
    reference = Path(__file__).resolve().parents[1] / "bench" / "golden_reference.csv"
    expected = list(csv.reader(reference.read_text().splitlines()))
    got = list(csv.reader(render(run_sweep(golden_sweep_spec()), "csv").splitlines()))
    assert got[0] == expected[0]
    assert len(got) == len(expected) == 9
    for row, ref_row in zip(got[1:], expected[1:]):
        assert len(row) == len(ref_row)
        for column, cell, ref in zip(expected[0], row, ref_row):
            assert _cell_agrees(cell, ref), (column, cell, ref)


def test_text_format_mirrors_fields():
    table = run_sweep(small_spec(axes=(("eta", (1e-3,)),)))
    text = render(table, "text")
    rec = parse_record(text)
    assert rec["rows"] == 1
    assert rec["row.0.eta"] == 1e-3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_code(capsys):
    assert main(["chernoff", "--no-such-flag"]) == 1
    assert main([]) == 1


def test_cli_state_runs(capsys):
    code = main(["state", "--theta", "0.1", "--cutoff", "6", "--chain-cutoff", "8",
                 "--tail-bound", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "|000>" in out and "leakage" in out


def test_cli_state_numeric_failure_exit_code(capsys):
    code = main(["state", "--theta", "0.2", "--cutoff", "6", "--chain-cutoff", "4",
                 "--tail-bound", "1"])
    assert code == 2


def test_cli_chernoff_text_report(capsys, tmp_path):
    out = tmp_path / "report.txt"
    code = main(["chernoff", "--theta", "0.1", "--eta", "0.05", "--nbar2", "3",
                 "--nbar3", "3", "--cutoff", "6", "--tail-bound", "1",
                 "--out", str(out)])
    assert code == 0
    rec = parse_record(out.read_text())
    assert rec["q_half"] == pytest.approx(0.996920494113427, abs=1e-12)
    assert rec["s_star"] == pytest.approx(0.4447, abs=2e-4)


@pytest.mark.parametrize("command, name", [("chernoff", "evaluate_point"),
                                           ("appendix-audit", "audit_overlap")])
def test_cli_out_of_memory_is_a_numeric_failure(capsys, monkeypatch, command, name):
    # as a sweep row records it; never allocate for real, since with memory
    # overcommit a huge allocation can succeed and then be killed
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 37.3 GiB for an array")

    monkeypatch.setattr(cli, name, exhausted)
    assert main([command, "--cutoff", "6", "--tail-bound", "1"]) == 2
    assert capsys.readouterr().err == \
        "numeric failure: out of memory: Unable to allocate 37.3 GiB for an array\n"


def test_nan_tolerance_is_a_usage_error(capsys):
    # NaN fails every comparison: it must not pass as a positive tolerance and
    # end the search at its first bracket midpoint
    with pytest.raises(ValueError, match="tolerance must be positive"):
        evaluate_point(GOLDEN_POINT, tol=math.nan)
    code = main(["chernoff", "--theta", "0.1", "--eta", "0.05", "--nbar2", "3",
                 "--nbar3", "3", "--cutoff", "6", "--tail-bound", "1", "--tol", "nan"])
    assert code == 1
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tail_bound", ["0", "-1"])
def test_non_positive_tail_bound_is_a_usage_error(capsys, tail_bound):
    # auto_cutoff takes log(tail_bound): the parameters reject it first, by name
    code = main(["chernoff", "--tail-bound", tail_bound])
    assert code == 1
    assert "tail_bound must be positive (inf disables the check), got" in capsys.readouterr().err


def test_cli_strict_regime_exit_code(capsys):
    # nbar=3 violates the high-noise regime; --strict makes that fatal
    code = main(["chernoff", "--theta", "0.1", "--eta", "0.05", "--nbar2", "3",
                 "--nbar3", "3", "--cutoff", "6", "--tail-bound", "1", "--strict"])
    assert code == 3


def test_cli_audit_record(capsys):
    code = main(["appendix-audit", "--theta", "0.01", "--eta", "0.01",
                 "--nbar2", "50", "--nbar3", "50", "--background", "flat"])
    assert code == 0
    rec = parse_record(capsys.readouterr().out)
    assert rec["t_paper"] == pytest.approx(0.998, abs=1e-15)
    assert rec["verdict"] == "matches_paper_order"


def test_cli_reproduce_factor100(capsys):
    code = main(["reproduce", "factor100"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["ratio"]) == pytest.approx(100.0, abs=1e-12)


def test_cli_sweep_config_and_golden(tmp_path, capsys):
    base = """
theta = 0.01
eta = 0.001
nbar2 = 20
nbar3 = 20
background = flat
"""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(base + "axis.eta = 0.001,0.01\noutputs = exponent,q_half,ratio\n"
                   "format = csv\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    # the file holds the bytes stdout shows, which the golden tests compare
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    # --format overrides the config's format key
    assert main(["sweep", "--config", str(cfg), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("columns = eta,exponent,")
    # float(None) and float(True) would fail the row with a traceback or
    # evaluate theta = 1 under the label true
    for name, cell, value in (("eta", "0.001,", "None"), ("theta", "0.1,true", "True")):
        cfg.write_text(base + f"axis.{name} = {cell}\n")
        with pytest.raises(ValueError, match=f"axis '{name}' takes numbers, got {value}"):
            SweepSpec.from_file(cfg)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"invalid arguments: axis '{name}' takes numbers, got {value}\n"
    # a key appears once, and the fixed block names theta, eta, nbar2 and nbar3
    # even where an axis sweeps one of them
    for text, message in ((base + "axis.eta = 0.001\naxis.eta = 0.01\n",
                           "line 8: key 'axis.eta' repeats line 7"),
                          (base.replace("eta = 0.001\n", "") + "axis.eta = 0.001,0.01\n",
                           "missing parameter keys: ['eta']")):
        cfg.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec.from_file(cfg)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"invalid arguments: {message}\n"
    # an unknown name is a per-row error
    cfg.write_text(base + "axis.background = bogus\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert "ValueError: background must be one of" in capsys.readouterr().out


def test_cli_subprocess_entry_point(tmp_path):
    out = tmp_path / "rep.csv"
    repo_root = Path(__file__).resolve().parents[1]
    # pytest's pythonpath setting reaches this process, not its children
    src = str(Path(triqi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "triqi.cli", "reproduce", "evolution-order",
         "--out", str(out)],
        capture_output=True, text=True, cwd=repo_root, env=env)
    assert proc.returncode == 0, proc.stderr
    body = out.read_text().splitlines()
    assert body[0].startswith("theta,")
    assert len(body) == 4
