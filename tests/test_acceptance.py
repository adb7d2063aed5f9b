"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and prints a
single [PASS]/[FAIL] line (run with ``pytest -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

from triqi.bounds import chernoff, error_bound_2gamma, error_bound_3gamma, q_s
from triqi.cli import main
from triqi.fock import DensityOperator
from triqi.overlap_audit import audit_overlap, closed_form_overlap, signed_root_overlap
from triqi.presets import (AUDIT_POINT, DENSE_CHECK_POINTS, GOLDEN_POINT,
                           golden_sweep_spec)
from triqi.states import (ProtocolParams, auto_cutoff, build_hypothesis_pair,
                          evolve_exact, thermal_tail_mass)
from triqi.sweep import render, run_sweep
from triqi.textfmt import parse_csv

from oracles import assert_density_invariants, partial_trace_ref, triplet_ket_ref


def _criterion(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def _dense(rho):
    return DensityOperator.dense(rho.space, rho.to_dense())


def test_criterion_1_advantage_factor(capsys):
    start = time.perf_counter()
    code = main(["reproduce", "factor100"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    by_ns = {float(r[header.index("n_signal")]): float(r[header.index("ratio")])
             for r in rows}
    ok = (code == 0 and abs(by_ns[0.01] - 100.0) <= 1e-12
          and abs(by_ns[0.1] - 10.0) <= 1e-12 and elapsed < 1.0)
    with capsys.disabled():
        _criterion(1, ok, f"reproduce factor100 ratio(N_S=0.01)={by_ns[0.01]!r}, "
                          f"runtime {elapsed:.3f}s < 1s")


def test_criterion_2_closed_form_values():
    target = 0.5 * math.exp(-10.0)
    p3 = error_bound_3gamma(eta=0.01, nbar=100.0, m_shots=1e4)
    p2 = error_bound_2gamma(kappa=0.1, n_signal=0.01, nbar=100.0, m_shots=1e6)
    rel3 = abs(p3 - target) / target
    rel2 = abs(p2 - target) / target
    ok = rel3 <= 1e-15 and rel2 <= 1e-15
    _criterion(2, ok, f"p3g rel err {rel3:.2e}, p2g rel err {rel2:.2e} <= 1e-15")


def test_criterion_3_signed_trace_reproduction():
    worst = 0.0
    slowest = 0.0
    for theta in (0.01, 0.05):
        for nbar in (20.0, 50.0):
            for eta in (1e-2, 4e-2):
                params = ProtocolParams(theta=theta, eta=eta, nbar2=nbar, nbar3=nbar,
                                        background="flat")
                assert params.regime_flags().eta_vs_invn2
                start = time.perf_counter()
                value = signed_root_overlap(params).value
                slowest = max(slowest, time.perf_counter() - start)
                err = abs(value - closed_form_overlap(eta, nbar))
                tol = 10.0 * (theta ** 2 * math.sqrt(eta) + 1.0 / nbar ** 2)
                worst = max(worst, err / tol)
    ok = worst <= 1.0 and slowest < 10.0
    _criterion(3, ok, f"max |signed - analytic| / tolerance = {worst:.3f} <= 1, "
                      f"slowest point {slowest:.3f}s < 10s")


def test_criterion_4_audit_completeness():
    audit = audit_overlap(AUDIT_POINT, fit_gap=True)
    rec = audit.as_record()
    required = ("t_paper", "t_papersign", "t_principal", "verdict",
                "flags.high_noise", "flags.small_theta", "flags.small_eta",
                "flags.eta_vs_invn2", "gap.eta_order")
    present = all(rec.get(k) is not None for k in required)
    ok = (present and audit.analytic is not None and audit.signed_root is not None
          and audit.principal is not None and not audit.incomplete)
    _criterion(4, ok, f"audit emits all three traces with flags; principal-vs-signed "
                      f"gap leading order in eta = {rec['gap.eta_order']:.3f} "
                      f"(sign change: {rec['gap.sign_change']})")


def test_criterion_5_qs_property_suite():
    start = time.perf_counter()
    checks = []
    pairs = []
    for cut, nbar in ((6, 3.0), (8, 2.5)):
        params = GOLDEN_POINT.with_updates(cutoffs=(2, cut, cut), nbar2=nbar, nbar3=nbar)
        pair = build_hypothesis_pair(params)
        pairs.append((_dense(pair.rho0), _dense(pair.rho1)))
    for r0, r1 in pairs:
        for s in np.arange(0.1, 0.91, 0.1):
            checks.append(abs(q_s(r0, r1, float(s)) - q_s(r1, r0, 1.0 - float(s))) <= 1e-10)
        grid = np.array([q_s(r0, r1, float(s)) for s in np.arange(0.0, 1.0001, 0.05)])
        second = grid[2:] - 2 * grid[1:-1] + grid[:-2]
        checks.append(second.min() >= -1e-9)
        res = chernoff(r0, r1)
        checks.append(q_s(r0, r1, 0.5) >= res.q_star - 1e-12)
    zero = build_hypothesis_pair(GOLDEN_POINT.with_updates(eta=0.0))
    res0 = chernoff(_dense(zero.rho0), _dense(zero.rho1))
    checks.append(res0.exponent < 1e-12)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 30.0
    _criterion(5, ok, f"symmetry/convexity/ordering checks all hold on the dense "
                      f"path, eta=0 exponent {res0.exponent:.2e} < 1e-12, "
                      f"runtime {elapsed:.1f}s < 30s")


def test_criterion_6_structured_dense_equivalence():
    worst = 0.0
    for params in DENSE_CHECK_POINTS:
        pair = build_hypothesis_pair(params)
        assert pair.rho0.space.total_dim <= 1000
        sq = q_s(pair.rho0, pair.rho1, 0.5)
        dq = q_s(_dense(pair.rho0), _dense(pair.rho1), 0.5)
        worst = max(worst, abs(sq - dq))
    ok = worst <= 1e-10
    _criterion(6, ok, f"structured vs dense Q_half and root overlap agree to "
                      f"{worst:.2e} <= 1e-10 on {len(DENSE_CHECK_POINTS)} pairs")


def test_criterion_7_evolution_order():
    devs = {}
    fulls = {}
    for theta in (0.2, 0.1, 0.05):
        ev = evolve_exact(theta, 24)
        devs[theta] = ev.support_deviation()
        fulls[theta] = ev.full_deviation()
    r1 = devs[0.1] / devs[0.2]
    r2 = devs[0.05] / devs[0.1]
    lo, hi = 1 / 8 * 0.8, 1 / 8 * 1.25
    n_exact = evolve_exact(0.1, 16).mean_photons
    ok = lo <= r1 <= hi and lo <= r2 <= hi and abs(n_exact - 0.01) <= 0.1 ** 3
    _criterion(7, ok, f"support-deviation ratios {r1:.4f}, {r2:.4f} in "
                      f"[{lo:.4f}, {hi:.4f}]; mean photons {n_exact:.6f} within "
                      f"theta^3 of 0.01 (full-chain deviation ratios "
                      f"{fulls[0.1]/fulls[0.2]:.3f}, {fulls[0.05]/fulls[0.1]:.3f} "
                      f"are second order: the off-support two-quanta leak)")


def test_criterion_8_state_invariants():
    checks = []
    grid = [
        GOLDEN_POINT,
        GOLDEN_POINT.with_updates(idler="traced"),
        AUDIT_POINT,
        ProtocolParams(theta=0.05, eta=0.02, nbar2=5.0, nbar3=8.0),   # auto cutoffs
        ProtocolParams(theta=0.02, eta=0.01, nbar2=20.0, nbar3=20.0, background="flat",
                       idler="traced"),
    ]
    for params in grid:
        pair = build_hypothesis_pair(params)
        assert_density_invariants(pair.rho0)
        assert_density_invariants(pair.rho1)
    for nbar in (1.0, 5.0, 20.0, 50.0):
        checks.append(thermal_tail_mass(nbar, auto_cutoff(nbar)) < 1e-8)
    traced = GOLDEN_POINT.with_updates(idler="traced")
    space = traced.space()
    amps = triplet_ket_ref(traced.theta, space.cutoffs)
    reduced = partial_trace_ref(np.outer(amps, amps.conj()), space.cutoffs, (0,))
    idler = partial_trace_ref(build_hypothesis_pair(traced).rho0.to_dense(), space.cutoffs, (0,))
    checks.append(np.abs(reduced - idler[:2, :2]).max() <= 1e-12)
    ok = all(checks)
    _criterion(8, ok, "Hermitian/PSD/trace invariants, auto-cutoff tails < 1e-8, "
                      "traced idler equals the mode-0 partial trace to 1e-12")


def test_criterion_9_sweep_determinism():
    spec = golden_sweep_spec()
    first = render(run_sweep(spec), "csv").encode()
    second = render(run_sweep(spec), "csv").encode()
    ok = first == second
    columns, rows = parse_csv(first.decode())
    errors = [r[columns.index("error")] for r in rows]
    ok = ok and all(e in ("", None) for e in errors)
    _criterion(9, ok, f"golden sweep CSV ({len(rows)} rows) is byte-identical "
                      f"across repeated runs, no per-point errors")
