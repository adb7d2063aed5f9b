"""What the benchmark harness under ``bench/`` reaches of the package.

``bench/run.py`` wraps layer functions by name for ``--trace 1`` and builds
sweep specs with a worker count, so a change under ``src/`` alone can break
it.  This loads the harness by path and checks that contract without running
a workload.
"""

import importlib.util
import os
import sys
import warnings
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HARNESS_MODULES = ("check", "spans")


@pytest.fixture
def harness(monkeypatch):
    """``bench/run.py`` as a module, with the environment, ``sys.path`` and
    the warning filters it touches restored afterwards."""
    for var in BLAS_VARS:  # run.py pins these at import
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    loaded = [name for name in HARNESS_MODULES if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        with warnings.catch_warnings():
            spec.loader.exec_module(run)
            yield run, run.load_triqi()
    finally:
        for name in loaded:
            sys.modules.pop(name, None)


def test_every_traced_layer_resolves(harness):
    run, t = harness
    targets = run.layer_targets(t)
    assert {name for name, *_ in targets} >= {"fock.as_diag_plus_low_rank", "fock.to_dense",
                                              "bounds.q_s", "bounds.helstrom"}
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), name
    # a traced call records the structured detector's conversion
    tracer = run.spans.Tracer()
    pair = t.states.build_hypothesis_pair(t.presets.GOLDEN_POINT)
    with run.spans.installed(tracer, targets):
        t.bounds.q_s(pair.rho0, pair.rho1, 0.5)
        # the structured references of point-grid's and dense-lane's checks
        t.bounds.q_s(pair.rho0, pair.rho1, 0.25)
        t.bounds.chernoff(pair.rho0, pair.rho1)
        t.bounds.helstrom_optimum(pair.rho0, pair.rho1)
    names = [s.name for s in tracer.spans]
    assert names.count("bounds.q_s") == 2 and "fock.as_diag_plus_low_rank" in names
    assert {"bounds.chernoff", "bounds.helstrom"} <= set(names)
    # a built pair never reaches the dense lane, which would check it against itself
    assert "spectral.eigh" not in names and "fock.to_dense" not in names
    assert not hasattr(t.bounds.q_s, "__wrapped__")  # unwrapped again


def test_sweep_specs_take_a_worker_count(harness, tmp_path):
    run, t = harness
    assert t.presets.golden_sweep_spec(workers=2).workers == 2
    assert run.GoldenSweep(t, 1, tmp_path).sweep_spec(2).workers == 2
    # the point grid builds its SweepSpec(axes=, fixed=, outputs=, workers=)
    assert run.PointGrid(t, 1, tmp_path).sweep_spec(2).workers == 2


def test_dense_pair_is_decomposed_and_scanned_once_under_the_tracer(harness, monkeypatch):
    run, t = harness
    pair = t.states.build_hypothesis_pair(t.presets.GOLDEN_POINT)
    d0, d1 = run._dense_copy(t, pair.rho0), run._dense_copy(t, pair.rho1)
    scans = []
    original = t.spectral.nonzero_pattern

    def counting(mat):
        scans.append(len(mat))
        return original(mat)

    monkeypatch.setattr(t.spectral, "nonzero_pattern", counting)
    tracer = run.spans.Tracer()
    with run.spans.installed(tracer, run.layer_targets(t)):
        t.bounds.q_s(d0, d1, 0.5)
        first = list(tracer.spans)
        t.bounds.chernoff(d0, d1)
        t.bounds.helstrom_optimum(d0, d1)
    # bench/test_bench.py expects exactly this nesting
    root, = [s for s in first if s.name == "bounds.q_s"]
    eighs = [s for s in first if s.name == "spectral.eigh"]
    assert len(eighs) == 2 and all(s.parent == root.id for s in eighs)
    assert scans == [72, 72]
    later = tracer.spans[len(first):]
    assert {"bounds.chernoff", "bounds.helstrom"} <= {s.name for s in later}
    assert not [s for s in later if s.name == "spectral.eigh"] and scans == [72, 72]


def test_traced_audit_reads_one_pair(harness):
    run, t = harness
    tracer = run.spans.Tracer()
    with run.spans.installed(tracer, run.layer_targets(t)):
        t.overlap_audit.audit_overlap(t.presets.GOLDEN_POINT)
    names = [s.name for s in tracer.spans]
    # the signed root and the principal value nest under the audit and read
    # the audit's one pair
    root, = [s for s in tracer.spans if s.name == "overlap_audit.audit"]
    signed, = [s for s in tracer.spans if s.name == "overlap_audit.signed_root"]
    principal, = [s for s in tracer.spans if s.name == "overlap_audit.principal"]
    assert signed.parent == root.id and principal.parent == root.id
    assert names.count("states.build_pair") == 1
