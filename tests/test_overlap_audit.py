import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from triqi import overlap_audit, states
from triqi.cli import main
from triqi.errors import RegimeWarning
from triqi.overlap_audit import (audit_overlap, closed_form_overlap, gap_leading_order,
                                 match_tolerance, principal_overlap, signed_root_overlap)
from triqi.presets import AUDIT_POINT, AUDIT_POINT_SMALL, DENSE_CHECK_POINTS, GOLDEN_POINT
from triqi.states import ProtocolParams, build_hypothesis_pair, flat_probs

from oracles import pair_matrices_ref, qs_ref, trace_term, triplet_ket_ref


def test_closed_form_examples():
    assert closed_form_overlap(0.0, 7.0) == 1.0
    assert closed_form_overlap(0.01, 100.0) == pytest.approx(0.999, abs=1e-15)
    assert closed_form_overlap(0.04, 20.0) == pytest.approx(0.99, abs=1e-15)
    with pytest.raises(ValueError):
        closed_form_overlap(1.2, 10.0)


def test_closed_form_in_unit_interval():
    for eta in (1e-6, 1e-3, 0.1, 1.0):
        for nbar in (1.0, 5.0, 200.0):
            val = closed_form_overlap(eta, nbar)
            if math.sqrt(eta) <= nbar:
                assert 0.0 <= val <= 1.0
            if math.sqrt(eta) < nbar:
                assert val > 0.0


def test_signed_trace_eta_zero_collapses_to_one():
    p = AUDIT_POINT.with_updates(eta=0.0)
    st = signed_root_overlap(p)
    assert st.value == pytest.approx(1.0, abs=1e-15)
    # the plus branch of the triplet term: the cross term enters with its sign flipped
    flipped = (trace_term(st, "background_identity").value
               - trace_term(st, "entangled_cross").value)
    assert flipped == pytest.approx(1.0, abs=1e-15)


def test_signed_trace_at_audit_point():
    st = signed_root_overlap(AUDIT_POINT)
    assert st.value == pytest.approx(0.9980003999466696, abs=1e-14)  # frozen
    analytic = closed_form_overlap(0.01, 50.0)
    tol = (0.01 ** 2) * math.sqrt(0.01) + 1.0 / 50.0 ** 2
    assert abs(st.value - analytic) <= tol


def test_signed_trace_rejected_sign_exceeds_one():
    st = signed_root_overlap(AUDIT_POINT)
    assert (trace_term(st, "background_identity").value
            - trace_term(st, "entangled_cross").value) > 1.0


def test_signed_trace_below_one_on_preset_grid():
    # the selected minus branch keeps the trace below 1 across the regime grid
    for nbar in (20.0, 50.0, 100.0):
        for eta in (1e-3, 1e-2, 4e-2):
            for theta in (0.0, 0.01, 0.05):
                p = ProtocolParams(theta=theta, eta=eta, nbar2=nbar, nbar3=nbar,
                                   background="flat")
                assert signed_root_overlap(p).value <= 1.0


def test_signed_trace_terms_match_dense_construction():
    # flat point small enough to materialize every term operator
    p = ProtocolParams(theta=0.05, eta=0.04, nbar2=6.0, nbar3=6.0, background="flat")
    st = signed_root_overlap(p)
    b = flat_probs(6.0, 6)
    c, s = math.cos(p.theta), math.sin(p.theta)
    iv = np.array([c, -1j * s])
    proj = np.outer(iv, iv.conj())
    sqrt_bg = np.kron(np.diag(np.sqrt(b)), np.diag(np.sqrt(b)))
    rho0_half = np.kron(proj, sqrt_bg)

    psi = triplet_ket_ref(p.theta, p.resolved_cutoffs())
    p_psi = np.outer(psi, psi.conj())

    block = np.sqrt(b).copy()
    block[2:] = 0.0
    block_root = np.kron(proj, np.kron(np.diag(block), np.diag(block)))

    unit = np.trace(rho0_half @ rho0_half).real
    cross = -math.sqrt(p.eta) * np.trace(rho0_half @ p_psi).real
    blk = -np.trace(rho0_half @ block_root).real
    assert trace_term(st, "background_identity").value == pytest.approx(unit, abs=1e-14)
    assert trace_term(st, "entangled_cross").value == pytest.approx(cross, abs=1e-14)
    assert trace_term(st, "signal_block_correction").value == pytest.approx(blk, abs=1e-14)
    assert not trace_term(st, "signal_block_correction").included
    assert st.value == pytest.approx(unit + cross, abs=1e-14)


def test_signed_trace_needs_two_flat_levels():
    p = ProtocolParams(theta=0.01, eta=0.01, nbar2=1.2, nbar3=1.2, background="flat")
    with pytest.raises(ValueError):
        signed_root_overlap(p)


def test_signed_trace_warns_outside_regime():
    with pytest.warns(RegimeWarning):
        signed_root_overlap(GOLDEN_POINT)  # nbar=3 is not high noise


def test_principal_trace_eta_zero():
    assert principal_overlap(AUDIT_POINT.with_updates(eta=0.0)) == pytest.approx(1.0, abs=1e-12)


def test_principal_trace_golden_values():
    # thermal golden point equals the dense Q_half oracle value
    assert principal_overlap(GOLDEN_POINT) == pytest.approx(0.996920494113427, abs=1e-12)
    # flat nbar=20: structured path against the dense oracle
    r0, r1, _ = pair_matrices_ref(0.01, 0.01, 20.0, 20, idler="pure", background="flat")
    dense = qs_ref(r0, r1, 0.5)
    assert dense == pytest.approx(0.9980837431039422, abs=1e-13)  # frozen
    assert principal_overlap(AUDIT_POINT_SMALL) == pytest.approx(dense, abs=1e-10)
    # flat nbar=50, structured only (dim 5000), frozen after the nbar=20 validation
    assert principal_overlap(AUDIT_POINT) == pytest.approx(0.9966282738998706, abs=1e-12)


def test_principal_trace_in_unit_interval():
    for params in DENSE_CHECK_POINTS:
        val = principal_overlap(params)
        assert 0.0 < val <= 1.0 + 1e-10


def test_both_traces_vanishing_eta_rates():
    # fixed nbar deep in the regime so eta in {1e-4, 1e-3, 1e-2} stays valid
    base = ProtocolParams(theta=0.01, eta=1e-2, nbar2=320.0, nbar3=320.0, background="flat")
    etas = np.array([1e-4, 1e-3, 1e-2])
    signed = np.array([1.0 - signed_root_overlap(base.with_updates(eta=float(e))).value
                       for e in etas])
    principal = np.array([1.0 - principal_overlap(base.with_updates(eta=float(e)))
                          for e in etas])
    # the signed construction vanishes exactly like sqrt(eta)
    slope = np.polyfit(np.log(etas), np.log(signed), 1)[0]
    assert 0.45 <= slope <= 0.55
    # the principal trace decays at least that fast: (1 - T)/sqrt(eta) shrinks
    # monotonically toward eta -> 0, so c * sqrt(eta) bounds it on the grid
    ratios = principal / np.sqrt(etas)
    assert np.all(np.diff(ratios) > 0)
    c = ratios[-1]
    assert np.all(principal <= c * np.sqrt(etas) + 1e-15)


def test_gap_fit_leading_order():
    fit = gap_leading_order(AUDIT_POINT)
    assert not fit.sign_change
    assert 0.4 <= fit.eta_order <= 0.6
    assert len(fit.etas) == len(fit.gaps) == 5


def _count_builds(monkeypatch):
    """Record the params of every pair build and every background build."""
    calls = {"pair": [], "background": []}
    for name, key in (("build_hypothesis_pair", "pair"), ("background_marginals", "background")):
        original = getattr(states, name)

        def counted(params, original=original, key=key):
            calls[key].append(params)
            return original(params)

        for module in (states, overlap_audit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_gap_fit_derives_its_ladder_from_one_pair(monkeypatch):
    original = states.build_hypothesis_pair
    points = [AUDIT_POINT, AUDIT_POINT.with_updates(background="thermal")]
    calls = _count_builds(monkeypatch)
    fits = [audit_overlap(params, fit_gap=True).gap_fit for params in points]
    # the signed root, the principal value and every rung read one pair per audit
    assert calls == {"pair": points, "background": points}
    for params, fit in zip(points, fits):
        pair = original(params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for eta, gap in zip(fit.etas, fit.gaps):
                fresh = original(params.with_updates(eta=eta))
                rung = replace(pair.structured, scale=1 - eta, weight=eta)
                assert rung.q(0.5) == fresh.structured.q(0.5), eta
                assert gap == fresh.structured.q(0.5) - signed_root_overlap(fresh.params).value, eta


def test_audit_gap_fit_reads_the_passed_pair(monkeypatch):
    pair = build_hypothesis_pair(AUDIT_POINT)
    expected = audit_overlap(AUDIT_POINT, fit_gap=True).gap_fit
    calls = _count_builds(monkeypatch)
    assert audit_overlap(AUDIT_POINT, fit_gap=True, pair=pair).gap_fit == expected
    assert calls == {"pair": [], "background": []}
    with pytest.raises(ValueError, match="other parameters"):
        gap_leading_order(AUDIT_POINT_SMALL, pair=pair)


def test_gap_fit_leaves_the_warning_filters_alone(monkeypatch):
    # the rungs leave the regime on purpose; they must neither warn nor edit
    # the process-wide filter list, which concurrent sweep rows share
    pair = build_hypothesis_pair(AUDIT_POINT)
    seen = []
    original = overlap_audit.replace

    def spy(obj, **changes):
        if "weight" in changes:  # a rung of the ladder
            seen.append(list(warnings.filters))
        return original(obj, **changes)

    monkeypatch.setattr(overlap_audit, "replace", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = list(warnings.filters)
        fit = gap_leading_order(AUDIT_POINT, pair=pair)
        assert warnings.filters == before
    assert len(seen) == len(fit.etas) and all(f == before for f in seen)
    assert not [w for w in caught if issubclass(w.category, RegimeWarning)]
    rung = AUDIT_POINT.with_updates(eta=fit.etas[0])
    assert not rung.regime_flags().all_hold()
    with pytest.warns(RegimeWarning):
        signed_root_overlap(rung)


def test_audit_eta_zero_all_ones():
    a = audit_overlap(AUDIT_POINT.with_updates(eta=0.0))
    assert a.analytic == 1.0
    assert a.signed_root == pytest.approx(1.0, abs=1e-15)
    assert a.principal == pytest.approx(1.0, abs=1e-12)
    assert a.verdict == "matches_paper_order"


def test_audit_gap_fit_at_eta_zero_is_nan(capfd, tmp_path):
    # every rung of the ladder sits at eta = 0, where log(eta) has no fit
    params = ProtocolParams(theta=0.0, eta=0.0, nbar2=0.5, nbar3=0.5, cutoffs=(2, 6, 6),
                            tail_bound=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        fit = audit_overlap(params, fit_gap=True).gap_fit
    assert math.isnan(fit.eta_order)
    assert not fit.sign_change
    assert capfd.readouterr().err == ""
    out = tmp_path / "audit.txt"
    assert main(["appendix-audit", "--eta", "0", "--fit-gap", "--format", "text",
                 "--out", str(out)]) == 0
    assert "gap.eta_order = nan" in out.read_text().splitlines()
    assert "DLASCL" not in capfd.readouterr().err


def test_audit_at_working_point():
    a = audit_overlap(AUDIT_POINT, fit_gap=True)
    assert a.verdict == "matches_paper_order"
    assert a.flags.all_hold()
    assert abs(a.signed_root - a.analytic) <= match_tolerance(a.params)
    rec = a.as_record()
    for key in ("t_paper", "t_papersign", "t_principal", "verdict",
                "flags.high_noise", "flags.eta_vs_invn2",
                "err.theta2_sqrt_eta", "err.inv_nbar2", "err.theta3",
                "gap.eta_order", "gap.sign_change"):
        assert key in rec
    assert rec["t_paper"] == pytest.approx(0.998, abs=1e-15)


def test_audit_regime_violated():
    a = audit_overlap(AUDIT_POINT.with_updates(eta=1e-5))  # eta << 1/nbar^2
    assert a.verdict == "regime_violated"
    assert not a.flags.eta_vs_invn2


def test_audit_marks_incomplete_subcomputations():
    p = ProtocolParams(theta=0.01, eta=0.01, nbar2=1.2, nbar3=1.2, background="flat")
    a = audit_overlap(p)
    assert a.signed_root is None
    assert any("signed_root" in item for item in a.incomplete)
    assert a.principal is not None  # the principal path has no two-level requirement


def test_audit_signed_root_applies_the_thermal_tail_check():
    # cutoff 10 at nbar 20 leaves a thermal tail mass of 0.61, against 1e-8
    p = ProtocolParams(theta=0.01, eta=0.01, nbar2=20.0, nbar3=20.0, cutoffs=(2, 10, 10))
    a = audit_overlap(p)
    assert a.signed_root is None
    assert any(item.startswith("signed_root: thermal tail mass") for item in a.incomplete)
    assert any(item.startswith("principal: thermal tail mass") for item in a.incomplete)
    assert a.verdict != overlap_audit.VERDICT_MATCHES


def test_audit_warns_outside_the_regime_when_the_build_fails():
    # nbar = 3 leaves the high-noise regime and cutoff 6 fails its tail check;
    # the signed root warns before it reads the pair, so a failed build warns too
    p = ProtocolParams(theta=0.01, eta=0.01, nbar2=3.0, nbar3=3.0, cutoffs=(2, 6, 6))
    with pytest.warns(RegimeWarning, match="signed-root construction"):
        a = audit_overlap(p)
    assert a.signed_root is None and a.principal is None
    assert [item.split(":")[0] for item in a.incomplete] == ["signed_root", "principal"]


def test_audit_reads_a_passed_pair_of_its_params():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    assert audit_overlap(GOLDEN_POINT, pair=pair) == audit_overlap(GOLDEN_POINT)
    with pytest.raises(ValueError, match="other parameters"):
        audit_overlap(GOLDEN_POINT.with_updates(eta=0.1), pair=pair)


@pytest.mark.parametrize("params", DENSE_CHECK_POINTS,
                         ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))])
def test_principal_structured_dense_agreement(params):
    pair = build_hypothesis_pair(params)
    structured = principal_overlap(params)
    dense = qs_ref(pair.rho0.to_dense(), pair.rho1.to_dense(), 0.5)
    assert structured == pytest.approx(dense, abs=1e-10)
