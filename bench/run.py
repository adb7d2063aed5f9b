#!/usr/bin/env python3
"""Benchmark for triqi: the golden sweep, a scripted point grid and the dense lane.

Run from the repository root:

    python3 bench/run.py --workload point-grid --seed 1 --seconds 35 --trace 0

Workloads are described in bench/README.md.  All work comes from this one
process in a closed loop with a single caller; the program is driven only
through its public functions, and receives only the inputs generated here
from ``--seed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics (and the tracing overhead) with
``--trace 1``.
"""

import os

# Pinned before numpy loads.  Sweep workers times BLAS threads must stay
# within the core count, and the thread setting alone moves the golden sweep
# by tens of percent, so both sides of a comparison must run the same one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 4  # before and again after the timed passes
WORKLOADS = ("golden-sweep", "point-grid", "dense-lane")
POINT_GRID_NBAR = (0.5, 3.0)


def load_triqi():
    """Import triqi from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "triqi" / "__init__.py").is_file():
        raise SystemExit(f"bench: no triqi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triqi
    from triqi import bounds, cli, fock, overlap_audit, presets, spectral, states, sweep, textfmt
    if Path(triqi.__file__).resolve().parent != SRC / "triqi":
        raise SystemExit(f"bench: imported triqi from {triqi.__file__}, not from {SRC}")
    warnings.simplefilter("ignore", triqi.RegimeWarning)
    return argparse.Namespace(
        triqi=triqi, bounds=bounds, cli=cli, fock=fock, overlap_audit=overlap_audit,
        presets=presets, spectral=spectral, states=states, sweep=sweep, textfmt=textfmt)


@dataclass(frozen=True)
class Raised:
    """An operation that raised one of the program's typed errors."""

    error: str


@dataclass
class Pass:
    wall: float
    latencies: list
    outputs: list  # one entry per operation: its results, or a Raised


def _attempt(t, fn, *args):
    """Run one operation; a typed error becomes a Raised output."""
    try:
        return fn(*args)
    except (t.triqi.TriqiError, ValueError) as exc:
        return Raised(f"{type(exc).__name__}: {exc}")


def _dense_copy(t, rho):
    return t.fock.DensityOperator.dense(rho.space, rho.to_dense())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class GoldenSweep:
    """``triqi sweep --config golden`` through ``cli.main``, serial, one pass
    per call; an operation is one CSV row, a latency sample one call."""

    def __init__(self, t, seed: int, workdir: Path):
        self.t = t
        self.reference = (BENCH_DIR / "golden_reference.csv").read_text()
        self.n_rows = len(self.reference.splitlines()) - 1
        self.out = workdir / "golden.csv"
        self.argv = ["sweep", "--config", "golden", "--out", str(self.out)]

    def run_pass(self, tracer=None) -> Pass:
        if tracer is not None:
            tracer.point = "golden"
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = self.t.cli.main(self.argv)
        wall = time.perf_counter() - start
        header, *rows = self.out.read_text().splitlines() if code == 0 else [""]
        if code != 0 or len(rows) != self.n_rows:
            outputs = [Raised(f"exit {code}, {len(rows)} rows: {err.getvalue().strip()}")] \
                * self.n_rows
        else:
            outputs = [(header, row) for row in rows]
        return Pass(wall, [wall], outputs)

    def check(self, outputs):
        if any(isinstance(o, Raised) for o in outputs):
            return [True] * len(outputs), 0, 0
        header = outputs[0][0]
        return check.compare_csv_rows(header, [row for _, row in outputs], self.reference)

    def sweep_spec(self, workers: int):
        return self.t.presets.golden_sweep_spec(workers=workers)


class GridResult(NamedTuple):
    s_star: float
    q_star: float
    exponent: float
    q_half: float
    helstrom: float
    t_papersign: float | None
    t_principal: float | None
    verdict: str


def point_grid_axes(seed: int):
    """Sweep axes of the point grid: 6 x 5 x 2 x 2 x 2 = 240 points.

    ``theta`` spans [0, pi/2] and ``eta`` [0, 1] with both endpoints; the seed
    draws the interior values.  The two background occupations are fixed: at
    theta = pi/2 whether the flat background fails depends on ``nbar``, and a
    drawn ``nbar`` would make the failure count depend on the seed.
    """
    rng = random.Random(seed)
    theta = (0.0, *sorted(rng.uniform(0.0, math.pi / 2) for _ in range(4)), math.pi / 2)
    eta = (0.0, *sorted(rng.uniform(0.0, 1.0) for _ in range(3)), 1.0)
    nbar = POINT_GRID_NBAR
    return (("theta", theta), ("eta", eta), ("nbar", nbar),
            ("background", ("thermal", "flat")), ("idler", ("paper_pure", "traced")))


class PointGrid:
    """``evaluate_point`` then ``audit_overlap`` per point, as a sweep row does,
    called the way a library user scripts a scan.  Small explicit cutoffs keep
    the dimension at 72, so per-point fixed costs dominate."""

    def __init__(self, t, seed: int, workdir: Path):
        self.t = t
        self.axes = point_grid_axes(seed)
        self.fixed = t.states.ProtocolParams(theta=0.0, eta=0.0, nbar2=1.0, nbar3=1.0,
                                             cutoffs=(2, 6, 6), tail_bound=math.inf)
        self.points = [
            self.fixed.with_updates(theta=th, eta=eta, nbar2=nb, nbar3=nb,
                                    background=bg, idler=idler)
            for th, eta, nb, bg, idler in itertools.product(*(v for _, v in self.axes))]

    def _evaluate(self, params) -> GridResult:
        report = self.t.bounds.evaluate_point(params)
        audit = self.t.overlap_audit.audit_overlap(params)
        return GridResult(report.s_star, report.q_star, report.chernoff_exponent,
                          report.bhattacharyya_q, report.helstrom_error,
                          audit.signed_root, audit.principal, audit.verdict)

    def run_pass(self, tracer=None) -> Pass:
        latencies, outputs = [], []
        start = time.perf_counter()
        for i, params in enumerate(self.points):
            if tracer is not None:
                tracer.point = str(i)
            t0 = time.perf_counter()
            outputs.append(_attempt(self.t, self._evaluate, params))
            latencies.append(time.perf_counter() - t0)
        return Pass(time.perf_counter() - start, latencies, outputs)

    def _dense_agreement(self, params, out: GridResult):
        """Q_{1/4}, Q_{1/2} and Helstrom against the dense lane."""
        bounds = self.t.bounds
        pair = self.t.states.build_hypothesis_pair(params)
        d0, d1 = _dense_copy(self.t, pair.rho0), _dense_copy(self.t, pair.rho1)
        return [check.numbers_agree(bounds.q_s(pair.rho0, pair.rho1, 0.25),
                                    bounds.q_s(d0, d1, 0.25)),
                check.numbers_agree(out.q_half, bounds.q_s(d0, d1, 0.5)),
                check.numbers_agree(out.helstrom, bounds.helstrom_optimum(d0, d1))]

    def check(self, outputs):
        failed, compared, mismatches = [], 0, 0
        for params, out in zip(self.points, outputs):
            if isinstance(out, Raised):
                failed.append(True)
                continue
            agree = _attempt(self.t, self._dense_agreement, params, out)
            if isinstance(agree, Raised):
                failed.append(True)
                continue
            compared += len(agree)
            mismatches += agree.count(False)
            failed.append(not all(agree))
        return failed, compared, mismatches

    def sweep_spec(self, workers: int):
        outputs = self.t.presets.golden_sweep_spec().outputs
        return self.t.sweep.SweepSpec(axes=self.axes, fixed=self.fixed, outputs=outputs,
                                      workers=workers)


class DenseLane:
    """Dense copies of ``presets.DENSE_CHECK_POINTS`` (dims 72-800): materialize
    both hypotheses, then ``q_s(., ., 0.5)``, ``chernoff`` and
    ``helstrom_optimum``; an operation is one point.  The seed fixes the order
    in which the points run."""

    def __init__(self, t, seed: int, workdir: Path):
        self.t = t
        points = list(t.presets.DENSE_CHECK_POINTS)
        random.Random(seed).shuffle(points)
        self.pairs = [t.states.build_hypothesis_pair(p) for p in points]

    def _lane_values(self, rho0, rho1):
        bounds = self.t.bounds
        result = bounds.chernoff(rho0, rho1)
        return (bounds.q_s(rho0, rho1, 0.5), result.q_star, result.exponent,
                bounds.helstrom_optimum(rho0, rho1), *(q for _, q in result.grid))

    def _dense(self, pair):
        return self._lane_values(_dense_copy(self.t, pair.rho0), _dense_copy(self.t, pair.rho1))

    def run_pass(self, tracer=None) -> Pass:
        latencies, outputs = [], []
        start = time.perf_counter()
        for i, pair in enumerate(self.pairs):
            if tracer is not None:
                tracer.point = str(i)
            t0 = time.perf_counter()
            outputs.append(_attempt(self.t, self._dense, pair))
            latencies.append(time.perf_counter() - t0)
        return Pass(time.perf_counter() - start, latencies, outputs)

    def check(self, outputs):
        """Dense results against the structured lane on the same pair."""
        failed, compared, mismatches = [], 0, 0
        for pair, out in zip(self.pairs, outputs):
            ref = _attempt(self.t, self._lane_values, pair.rho0, pair.rho1)
            if isinstance(out, Raised) or isinstance(ref, Raised) or len(out) != len(ref):
                failed.append(True)
                continue
            agree = [check.numbers_agree(a, b) for a, b in zip(out, ref)]
            compared += len(agree)
            mismatches += agree.count(False)
            failed.append(not all(agree))
        return failed, compared, mismatches

    sweep_spec = None


WORKLOAD_TYPES = {"golden-sweep": GoldenSweep, "point-grid": PointGrid, "dense-lane": DenseLane}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def account(workload, passes: list[Pass]):
    """Attempted and failed operations of one run.

    Each distinct operation of the workload is attempted once; the passes
    repeat it only to time it.  The workload checks the first pass's outputs
    against its reference; every later pass must reproduce them exactly, or
    the operation fails and the run is non-deterministic.  Counting distinct
    operations keeps ``failed / attempted`` independent of how many passes fit
    in the run.
    """
    first = passes[0].outputs
    failed_first, compared, mismatches = workload.check(first)
    failed = 0
    deterministic = True
    for i, (ref, bad) in enumerate(zip(first, failed_first)):
        same = all(repr(p.outputs[i]) == repr(ref) for p in passes)
        deterministic = deterministic and same
        failed += bool(bad or not same)
    return len(first), failed, deterministic, compared, mismatches


def run_for(seconds: float, step):
    """Call ``step`` until the next call would likely overrun ``seconds``."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step())
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return results


def percentile(samples, p: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]


def highest_percentile(samples):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = p
    return best


def setup_times(workload: str, seed: int) -> list[float]:
    """Fresh interpreter start until triqi is imported and inputs are built."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def pool_speedup(t, workload):
    """``run_sweep`` wall time at one worker and at ``NPROC`` workers."""
    times, tables = [], []
    for workers in (1, NPROC):
        spec = workload.sweep_spec(workers)
        start = time.perf_counter()
        tables.append(t.sweep.run_sweep(spec))
        times.append(time.perf_counter() - start)
    return times[0], times[1], repr(tables[0]) == repr(tables[1])


def layer_targets(t):
    """(span name, owner, attribute, counter) for every traced layer call."""
    def groups(spectrum):
        return "spectral.secular_groups", len(spectrum.groups)

    return [
        ("cli.main", t.cli, "main", None),
        ("states.build_pair", t.states, "build_hypothesis_pair", None),
        ("fock.as_diag_plus_low_rank", t.fock, "as_diag_plus_low_rank", None),
        ("fock.to_dense", t.fock.DensityOperator, "to_dense", None),
        ("spectral.rank_one_spectrum", t.spectral, "rank_one_spectrum", groups),
        ("spectral.trace_power", t.spectral, "diag_rank_one_trace_power", None),
        ("spectral.eigh", t.spectral, "eigh", None),
        ("bounds.q_s", t.bounds, "q_s", None),
        ("bounds.chernoff", t.bounds, "chernoff", None),
        ("bounds.helstrom", t.bounds, "helstrom_optimum", None),
        ("bounds.evaluate_point", t.bounds, "evaluate_point", None),
        ("overlap_audit.signed_root", t.overlap_audit, "signed_root_overlap", None),
        ("overlap_audit.principal", t.overlap_audit, "principal_overlap", None),
        ("overlap_audit.audit", t.overlap_audit, "audit_overlap", None),
        ("sweep.run_sweep", t.sweep, "run_sweep", None),
        ("textfmt.render", t.textfmt, "format_csv", None),
        ("textfmt.render", t.textfmt, "format_record", None),
    ]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload):
    # Probing set-up on both sides of the timed passes spreads the probes over
    # the run, so one slow stretch of a shared host does not cover them all.
    setup = setup_times(args.workload, args.seed)
    passes = run_for(args.seconds, workload.run_pass)
    setup += setup_times(args.workload, args.seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall for p in passes]
    lat = [x for p in passes for x in p.latencies]
    # Each operation's fastest repeat: co-tenants of a shared host only ever
    # slow the program, by up to 2x and for anything from a second to minutes,
    # so the best of several repeats tracks the program where the median
    # tracks the host.  wall_s is one pass with every operation at its best.
    best = [min(op) for op in zip(*(p.latencies for p in passes))]
    print(f"setup_s      median {statistics.median(setup):.4f} s  (n={len(setup)})")
    print(f"wall_s       {sum(best):.4f} s  (best repeat of each of {len(best)} operations over "
          f"{len(walls)} passes; passes best {min(walls):.4f} s, median "
          f"{statistics.median(walls):.4f} s)")
    for name, samples in (("all repeats", lat), ("best repeat", best)):
        hi = highest_percentile(samples)
        tail = f"p{hi:g} {percentile(samples, hi):.6f} s" if hi else "none"
        print(f"point        {name}: p50 {percentile(samples, 50):.6f} s  "
              f"p95 {percentile(samples, 95):.6f} s  (n={len(samples)}; highest percentile "
              f"with >=10 samples beyond it: {tail})")
    print(f"peak_rss_mb  {rss_mb:.1f} MB")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(sum(best), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "point_p50_s": metric(percentile(best, 50), "s"),
        "point_p95_s": metric(percentile(best, 95), "s"),
    }
    return passes, metrics


def per_layer(args, t, workload):
    metrics = {}
    if workload.sweep_spec is not None:
        serial, parallel, same = pool_speedup(t, workload)
        print(f"pool         serial {serial:.4f} s, {NPROC} workers {parallel:.4f} s")
    else:
        serial = parallel = 0.0
        same = True
    tracer = spans.Tracer()
    targets = layer_targets(t)
    untraced, traced = [], []

    def pair():
        untraced.append(workload.run_pass())
        with spans.installed(tracer, targets):
            traced.append(workload.run_pass(tracer))

    run_for(max(args.seconds - serial - parallel, 0.0), pair)
    summary = spans.layer_summary(tracer.spans, [name for name, *_ in targets], len(traced))
    for name, (self_s, calls) in summary.items():
        metrics[f"{name}_s"] = metric(self_s, "s")
        metrics[f"{name}_calls"] = metric(calls, "count")
        print(f"{name:<32} self {self_s * 1e3:10.4f} ms/call  {calls:10.2f} calls/pass")
    rank_one_calls = summary["spectral.rank_one_spectrum"][1] * len(traced)
    groups = tracer.counters["spectral.secular_groups"]
    metrics["spectral.secular_groups"] = metric(
        groups / rank_one_calls if rank_one_calls else 0.0, "count")
    metrics["sweep.pool_speedup"] = metric(serial / parallel if parallel else 0.0, "ratio")
    metrics["sweep.pool_serial_s"] = metric(serial, "s")
    metrics["sweep.pool_parallel_s"] = metric(parallel, "s")
    untraced_wall = statistics.median(p.wall for p in untraced)
    overhead = statistics.median(p.wall for p in traced) - untraced_wall
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    print(f"trace        overhead {overhead:.4f} s on an untraced pass of {untraced_wall:.4f} s "
          f"({len(tracer.spans)} spans over {len(traced)} passes)")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(span_file)
    print(f"spans        {span_file.relative_to(ROOT)}")
    return untraced + traced, metrics, same


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info(np):
    """OpenBLAS build string and the thread count it reports at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        version = "unknown"
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def provenance(args):
    import numpy as np
    import scipy

    openblas, threads = blas_info(np)
    return {
        "git_sha": git_sha(), "src_sha256": src_sha256(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "nproc": NPROC,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
        "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": threads,
        "sweep_workers": 1, "pool_workers": NPROC if args.trace else None,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t = load_triqi()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        workload = WORKLOAD_TYPES[args.workload](t, args.seed, Path(tmp))
        if args.setup_probe:
            print(time.monotonic())
            return 0
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        if args.trace:
            passes, metrics, pool_same = per_layer(args, t, workload)
        else:
            passes, metrics = end_to_end(args, workload)
            pool_same = True
    attempted, failed, deterministic, compared, mismatches = account(workload, passes)
    print(f"failed_frac  {failed / attempted:.6f}  ({failed} of {attempted} operations failed)")
    print(f"check        {compared} values compared per pass, {mismatches} mismatched"
          + ("" if deterministic else "; outputs differ between passes")
          + ("" if pool_same else "; pooled sweep rows differ from serial"))
    if args.trace:
        metrics["check.compared"] = metric(compared, "count")
        metrics["check.mismatches"] = metric(mismatches, "count")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({"correct": deterministic and pool_same, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
