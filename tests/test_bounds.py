import gc
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from triqi import bounds, spectral
from triqi.bounds import (_PairContext, _pair_context, advantage_ratio, bhattacharyya_bound,
                          chernoff, error_bound_2gamma, error_bound_3gamma,
                          evaluate_point, helstrom_optimum, q_s)
from triqi.errors import DenseLimitError, NumericalError, RegimeWarning
from triqi.fock import DensityOperator, build_space
from triqi.overlap_audit import audit_overlap
from triqi.presets import (AUDIT_POINT, AUDIT_POINT_SMALL, DENSE_CHECK_POINTS, GOLDEN_POINT,
                           GOLDEN_POINT_TRACED, golden_sweep_spec)
from triqi.spectral import rank_one_spectrum
from triqi.states import (BACKGROUND_VARIANTS, IDLER_VARIANTS, ProtocolParams,
                          build_hypothesis_pair, flat_levels)

from oracles import (QsGrid, block_columns, d2q_reference, dense_eigensystem, dense_overlap_ref,
                     dq_reference, helstrom_ref, pair_full_arrays_ref, povm_error_ref, q_reference,
                     qs_ref, s_star_reference, support_powers_ref, trace_power_ref, triplet_ket_ref)

GOLDEN_PAIR = build_hypothesis_pair(GOLDEN_POINT)
TRACED_PAIR = build_hypothesis_pair(GOLDEN_POINT_TRACED)
# the s values of every reported Q_s curve
GRID = tuple(np.arange(0.0, 1.0 + bounds.GRID_STEP / 2, bounds.GRID_STEP).tolist())


def dense_copy(rho):
    return DensityOperator.dense(rho.space, rho.to_dense())


def diag_pair(p, q):
    space = build_space(1, [len(p)])
    return (DensityOperator.dense(space, np.diag(p)), DensityOperator.dense(space, np.diag(q)))


def test_qs_equal_states_is_one():
    rho = GOLDEN_PAIR.rho0
    for s in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert q_s(rho, rho, s) == pytest.approx(1.0, abs=1e-12)


def test_qs_pure_pair_s_independent():
    space = build_space(3, [2, 2, 2])
    k0 = triplet_ket_ref(0.2, space.cutoffs)
    k1 = triplet_ket_ref(0.7, space.cutoffs)
    overlap = abs(np.vdot(k0, k1)) ** 2
    r0 = DensityOperator.dense(space, np.outer(k0, k0.conj()))
    r1 = DensityOperator.dense(space, np.outer(k1, k1.conj()))
    for s in (0.1, 0.5, 0.9):
        assert q_s(r0, r1, s) == pytest.approx(overlap, abs=1e-12)


def test_qs_golden_value_structured_and_dense():
    frozen = 0.996920494113427  # dense eigendecomposition oracle
    assert q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, 0.5) == pytest.approx(frozen, abs=1e-12)
    assert q_s(dense_copy(GOLDEN_PAIR.rho0), dense_copy(GOLDEN_PAIR.rho1), 0.5) == \
        pytest.approx(frozen, abs=1e-12)
    assert qs_ref(GOLDEN_PAIR.rho0.to_dense(), GOLDEN_PAIR.rho1.to_dense(), 0.5) == \
        pytest.approx(frozen, abs=1e-13)


def test_qs_golden_endpoints():
    # informative because rho0 is rank deficient
    assert q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, 0.0) == pytest.approx(0.9990132624250361, abs=1e-12)
    assert q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("s", [math.nan, -0.5, 1.5])
def test_qs_rejects_s_outside_unit_interval_in_both_lanes(s):
    with pytest.raises(ValueError, match="outside"):
        GOLDEN_PAIR.structured.q(s)
    with pytest.raises(ValueError, match="outside"):
        q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, s)
    with pytest.raises(ValueError, match="outside"):
        q_s(dense_copy(GOLDEN_PAIR.rho0), dense_copy(GOLDEN_PAIR.rho1), s)


@pytest.mark.parametrize("s", [math.nan, -0.5, 1.5])
def test_q_grid_rejects_s_outside_unit_interval_as_a_float_does(s):
    d0, d1 = dense_copy(GOLDEN_PAIR.rho0), dense_copy(GOLDEN_PAIR.rho1)
    for q in (GOLDEN_PAIR.structured.q, lambda s: q_s(d0, d1, s)):
        with pytest.raises(ValueError) as grid:
            q(np.array([0.0, 0.5, s, 1.0]))
        assert str(grid.value) == f"s={s} outside [0, 1]"
        # numpy scalars and 0-d arrays are scalars, as a float is
        for scalar_s in (s, np.float64(s), np.float32(s), np.array(s)):
            with pytest.raises(ValueError) as scalar:
                q(scalar_s)
            assert str(scalar.value) == str(grid.value)


def test_q_takes_any_scalar_s_as_a_float_and_a_sequence_as_a_grid():
    d0, d1 = dense_copy(GOLDEN_PAIR.rho0), dense_copy(GOLDEN_PAIR.rho1)
    for q in (GOLDEN_PAIR.structured.q, lambda s: q_s(d0, d1, s)):
        for s in (0, 1, np.float64(0.3), np.float32(0.3), np.array(0.3)):
            value = q(s)
            assert type(value) is float
            assert value == q(float(s)) == q(np.array([float(s)]))[0]
        for s in ([0.3], np.array([0.0, 0.3, 1.0])):
            values = q(s)
            assert isinstance(values, np.ndarray) and values.shape == np.shape(s)
            assert values.tolist() == [q(float(x)) for x in s]


def test_qs_symmetry():
    for s in np.arange(0.1, 0.95, 0.1):
        a = q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, float(s))
        b = q_s(GOLDEN_PAIR.rho1, GOLDEN_PAIR.rho0, 1.0 - float(s))
        assert a == pytest.approx(b, abs=1e-10)


def test_qs_bounded_by_one_and_strictly_below_for_distinct_states():
    values = [q_s(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1, float(s))
              for s in np.arange(0.0, 1.0001, 0.1)]
    assert all(v <= 1.0 + 1e-12 for v in values)
    assert min(values) < 1.0 - 1e-6  # distinct states are distinguishable


def test_qs_rejects_indefinite_input():
    space = build_space(1, [2])
    bad = DensityOperator.dense(space, np.diag([1.2, -0.2]))
    good = DensityOperator.dense(space, np.diag([0.5, 0.5]))
    with pytest.raises(NumericalError):
        q_s(bad, good, 0.5)
    # Helstrom checks what Q_s checks; it returned -0.0154 for the first pair
    skew = DensityOperator.dense(space, np.array([[0.5, 0.5], [0.0, 0.5]]))
    indefinite = DensityOperator.dense(space, np.diag([1.5, -0.5]))
    heavy = DensityOperator.dense(space, np.diag([3.0, 1.0]))
    for rho0, rho1, match in ((skew, indefinite, "Hermitian"), (good, indefinite, "negative"),
                              (heavy, heavy, "trace 4.0")):
        with pytest.raises(NumericalError, match=match):
            q_s(rho0, rho1, 0.5)
        with pytest.raises(NumericalError, match=match):
            helstrom_optimum(rho0, rho1)


def test_qs_space_mismatch():
    small = build_hypothesis_pair(GOLDEN_POINT.with_updates(cutoffs=(2, 4, 4)))
    with pytest.raises(ValueError):
        q_s(GOLDEN_PAIR.rho0, small.rho1, 0.5)


def test_helstrom_space_mismatch():
    # equal dimensions and uniform diagonals, but different mode cutoffs
    rho_a = DensityOperator.dense(build_space(2, [2, 3]), np.eye(6) / 6.0)
    rho_b = DensityOperator.dense(build_space(2, [3, 2]), np.eye(6) / 6.0)
    for a, b in ((rho_a, rho_b), (rho_b, rho_a)):
        with pytest.raises(ValueError, match="space mismatch"):
            q_s(a, b, 0.5)
        with pytest.raises(ValueError, match="space mismatch"):
            helstrom_optimum(a, b)
    assert helstrom_optimum(rho_a, rho_a) == pytest.approx(0.5, abs=1e-15)


def test_chernoff_identical_states():
    res = chernoff(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho0)
    assert res.exponent < 1e-12


def test_chernoff_commuting_boundary_minimum():
    rho0, rho1 = diag_pair([0.5, 0.5], [1.0, 0.0])
    res = chernoff(rho0, rho1)
    assert res.q_star == pytest.approx(0.5, abs=1e-5)
    assert res.s_star > 0.99


def test_chernoff_golden_triple_vs_grid_oracle():
    res = chernoff(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1)
    grid = QsGrid(GOLDEN_PAIR.rho0.to_dense(), GOLDEN_PAIR.rho1.to_dense())
    ss = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    qv = np.array([grid.q(float(s)) for s in ss])
    k = int(np.argmin(qv))
    assert abs(res.s_star - ss[k]) <= 2e-4
    assert res.q_star <= qv[k] + 1e-12
    assert res.q_star == pytest.approx(qv[k], abs=1e-9)
    # frozen from the grid-scan oracle
    assert ss[k] == pytest.approx(0.4447, abs=1e-12)
    assert qv[k] == pytest.approx(0.9968891798483536, abs=1e-12)
    assert res.exponent == pytest.approx(-math.log(res.q_star), abs=1e-15)


def test_chernoff_convexity_prescan():
    res = chernoff(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1)
    q = np.array([v for _, v in res.grid])
    second = q[2:] - 2 * q[1:-1] + q[:-2]
    assert second.min() >= -1e-9


def test_chernoff_exponent_monotone_in_eta():
    exps = []
    for eta in (0.0, 0.01, 0.05, 0.1):
        pair = build_hypothesis_pair(GOLDEN_POINT.with_updates(eta=eta))
        exps.append(chernoff(pair.rho0, pair.rho1).exponent)
    assert all(b >= a - 1e-12 for a, b in zip(exps, exps[1:]))
    assert exps[0] < 1e-12


def test_bhattacharyya_trivial_and_arithmetic():
    rho = GOLDEN_PAIR.rho0
    for m in (1, 7):
        assert bhattacharyya_bound(rho, rho, m) == pytest.approx(0.5, abs=1e-12)
    # commuting pair engineered to Q_half = 0.9
    rho0, rho1 = diag_pair([1.0, 0.0], [0.81, 0.19])
    assert q_s(rho0, rho1, 0.5) == pytest.approx(0.9, abs=1e-14)
    assert bhattacharyya_bound(rho0, rho1, 10) == pytest.approx(0.5 * 0.9 ** 10, abs=1e-14)
    assert bhattacharyya_bound(rho0, rho1, 10) == pytest.approx(0.17433922005, abs=1e-9)
    with pytest.raises(ValueError):
        bhattacharyya_bound(rho0, rho1, 0)


@pytest.mark.parametrize("idler", IDLER_VARIANTS)
def test_bhattacharyya_takes_an_overlap_rounded_above_one_as_one(idler):
    # Q_{1/2} <= 1 by Cauchy-Schwarz, but at flat nbar = 20, theta = eta = 0
    # it rounds above 1, where a large shot count used to overflow the power
    pair = build_hypothesis_pair(ProtocolParams(theta=0.0, eta=0.0, nbar2=20.0, nbar3=20.0,
                                                background="flat", idler=idler))
    assert q_s(pair.rho0, pair.rho1, 0.5) > 1.0
    for m in (1, 10 ** 300):
        assert bhattacharyya_bound(pair.rho0, pair.rho1, m) == 0.5


def test_bound_ordering_chernoff_vs_bhattacharyya():
    res = chernoff(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1)
    for m in (1, 10, 100):
        assert 0.5 * res.q_star ** m <= bhattacharyya_bound(GOLDEN_PAIR.rho0,
                                                            GOLDEN_PAIR.rho1, m) + 1e-15


def test_helstrom_golden_values():
    assert helstrom_optimum(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1) == \
        pytest.approx(0.4772620726123002, abs=1e-11)
    assert helstrom_optimum(TRACED_PAIR.rho0, TRACED_PAIR.rho1) == \
        pytest.approx(0.47726437110246733, abs=1e-11)
    # structured path agrees with the dense eigendecomposition path
    assert helstrom_optimum(dense_copy(GOLDEN_PAIR.rho0), dense_copy(GOLDEN_PAIR.rho1)) == \
        pytest.approx(0.4772620726123002, abs=1e-11)
    # orthogonal states are told apart without error
    assert helstrom_optimum(*diag_pair([1.0, 0.0], [0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def _differing_patterns():
    """Two dense operators whose nonzero patterns differ and join: rho0
    couples indices {0, 1} and {2, 3}, rho1 couples {1, 2}."""
    m0 = np.zeros((4, 4), dtype=complex)
    m0[np.ix_([0, 1], [0, 1])] = [[0.3, 0.1j], [-0.1j, 0.2]]
    m0[np.ix_([2, 3], [2, 3])] = [[0.25, 0.05], [0.05, 0.25]]
    m1 = np.diag([0.4, 0.2, 0.3, 0.1]).astype(complex)
    m1[1, 2] = m1[2, 1] = 0.1
    space = build_space(1, [4])
    return DensityOperator.dense(space, m0), DensityOperator.dense(space, m1)


@pytest.mark.parametrize("pi0", [0.0, 0.3, 0.5, 1.0])
def test_dense_helstrom_matches_full_difference(pi0):
    pairs = [(dense_copy(p.rho0), dense_copy(p.rho1))
             for p in map(build_hypothesis_pair, DENSE_CHECK_POINTS)]
    for d0, d1 in pairs + [_differing_patterns()]:
        for a, b in ((d0, d1), (d1, d0)):
            expected = helstrom_ref(a.to_dense(), b.to_dense(), pi0)
            assert helstrom_optimum(a, b, pi0) == pytest.approx(expected, abs=1e-14)


def test_helstrom_below_half_q_half():
    for pair in (GOLDEN_PAIR, TRACED_PAIR):
        hel = helstrom_optimum(pair.rho0, pair.rho1)
        assert hel <= 0.5 * q_s(pair.rho0, pair.rho1, 0.5) + 1e-12
        assert hel <= 0.5
        assert hel <= bhattacharyya_bound(pair.rho0, pair.rho1, 1) + 1e-12


def test_closed_form_bounds_exact_values():
    with pytest.warns(RegimeWarning):
        val = error_bound_3gamma(0.01, 10.0, 0)  # nbar below the regime floor
        assert val == pytest.approx(0.5, abs=1e-16)
    p3 = error_bound_3gamma(0.01, 100.0, 1e4)
    assert p3 == pytest.approx(0.5 * math.exp(-10.0), rel=1e-15)
    p2 = error_bound_2gamma(0.1, 0.01, 100.0, 1e6)
    assert p2 == pytest.approx(0.5 * math.exp(-10.0), rel=1e-15)
    assert error_bound_3gamma(0.0, 100.0, 1e6) == pytest.approx(0.5, abs=1e-16)
    assert error_bound_2gamma(0.1, 0.0, 100.0, 1e6) == pytest.approx(0.5, abs=1e-16)
    assert error_bound_2gamma(0.1, 0.01, 100.0, 0) == pytest.approx(0.5, abs=1e-16)


def test_closed_form_regime_warnings():
    with pytest.warns(RegimeWarning):
        error_bound_3gamma(0.5, 100.0, 1)
    with pytest.warns(RegimeWarning):
        error_bound_3gamma(1e-6, 100.0, 1)  # eta below 10/nbar^2
    with pytest.warns(RegimeWarning):
        error_bound_2gamma(0.9, 0.01, 100.0, 1)


def test_advantage_ratio():
    assert advantage_ratio(0.01) == pytest.approx(100.0, abs=1e-12)
    assert advantage_ratio(0.1) == pytest.approx(10.0, abs=1e-13)
    assert advantage_ratio(0.999999) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(ValueError):
        advantage_ratio(1.0)
    with pytest.raises(ValueError):
        advantage_ratio(0.0)


def test_evaluate_point_record_fields():
    report = evaluate_point(GOLDEN_POINT, m_shots=100)
    rec = report.as_record()
    for key in ("s_star", "q_star", "exponent", "q_half", "helstrom",
                "p3g", "p2g", "ratio", "q_curve.s", "q_curve.q"):
        assert key in rec
    assert rec["q_half"] == pytest.approx(0.996920494113427, abs=1e-12)
    assert rec["ratio"] == pytest.approx(advantage_ratio(GOLDEN_POINT.theta ** 2), rel=1e-14)
    assert rec["q_star"] <= rec["q_half"]
    assert len(rec["q_curve.s"]) == 21


def test_evaluate_point_rejects_pair_of_other_params():
    with pytest.raises(ValueError, match="other parameters"):
        evaluate_point(GOLDEN_POINT, pair=build_hypothesis_pair(GOLDEN_POINT.with_updates(eta=0.1)))
    assert evaluate_point(GOLDEN_POINT, pair=GOLDEN_PAIR) == evaluate_point(GOLDEN_POINT)


def test_qs_symmetry_on_structured_only_size():
    # dimension 5000 forbids the dense lane: the build order reads the
    # structured pair, and the reversed order is a pair like any other
    pair = build_hypothesis_pair(AUDIT_POINT)
    assert pair.rho0.space.total_dim > pair.rho0.space.dense_limit
    for s in (0.0, 0.3, 0.5, 1.0):
        assert q_s(pair.rho0, pair.rho1, s) == pair.structured.q(s)
    assert helstrom_optimum(pair.rho0, pair.rho1) == pair.structured.helstrom(0.5)
    with pytest.raises(DenseLimitError):
        q_s(pair.rho1, pair.rho0, 0.5)
    with pytest.raises(DenseLimitError):
        helstrom_optimum(pair.rho1, pair.rho0)


def test_povm_error_of_helstrom_measurement_attains_optimum():
    rho0 = GOLDEN_PAIR.rho0.to_dense()
    rho1 = GOLDEN_PAIR.rho1.to_dense()
    w, v = np.linalg.eigh(0.5 * rho1 - 0.5 * rho0)
    e1 = (v * (w > 0)) @ v.conj().T  # decide target-present on the positive part
    e0 = np.eye(len(w)) - e1
    err = povm_error_ref(rho0, rho1, e0, e1, 0.5)
    assert err == pytest.approx(helstrom_optimum(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1),
                                abs=1e-12)


def test_chernoff_q_star_below_sampled_curve():
    res = chernoff(GOLDEN_PAIR.rho0, GOLDEN_PAIR.rho1)
    assert all(res.q_star <= q + 1e-10 for _, q in res.grid)


@pytest.mark.parametrize("params", DENSE_CHECK_POINTS,
                         ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))])
def test_structured_matches_dense_q_half_and_helstrom(params):
    pair = build_hypothesis_pair(params)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    assert q_s(pair.rho0, pair.rho1, 0.5) == pytest.approx(q_s(d0, d1, 0.5), abs=1e-10)
    for pi0 in (0.0, 0.2, 0.5, 0.7, 1.0):
        assert helstrom_optimum(pair.rho0, pair.rho1, pi0) == \
            pytest.approx(helstrom_optimum(d0, d1, pi0), abs=1e-10), pi0


def test_dense_lane_decomposes_each_operator_once(monkeypatch):
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[1])

    def run(fresh):
        result = chernoff(*fresh())
        return (result.s_star, result.q_star, result.grid, q_s(*fresh(), 0.5),
                bhattacharyya_bound(*fresh(), 3))

    uncached = run(lambda: (dense_copy(pair.rho0), dense_copy(pair.rho1)))
    calls = []
    original = spectral.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "triqi" and getattr(m, "eigh", None) is original]
    assert spectral in bound
    for module in bound:
        monkeypatch.setattr(module, "eigh", counting)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    assert run(lambda: (d0, d1)) == uncached
    assert len(calls) == 2

    space = build_space(1, [2])
    skew = DensityOperator.dense(space, np.array([[0.5, 0.1], [0.3, 0.5]]))
    good = DensityOperator.dense(space, np.diag([0.5, 0.5]))
    # a failed decomposition is not cached: every call decomposes again
    for _ in range(2):
        with pytest.raises(NumericalError):
            chernoff(skew, good)
        with pytest.raises(NumericalError):
            q_s(skew, good, 0.5)
    assert len(calls) == 6


def test_pair_context_misses_on_another_order_or_operator():
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[1])

    def values(rho0, rho1):
        result = chernoff(rho0, rho1)
        return (result.s_star, result.q_star, result.grid, q_s(rho0, rho1, 0.3),
                bhattacharyya_bound(rho0, rho1, 2), helstrom_optimum(rho0, rho1, 0.2))

    def fresh():
        return dense_copy(pair.rho0), dense_copy(pair.rho1)

    forward, backward = values(*fresh()), values(*fresh()[::-1])
    d0, d1 = fresh()
    other = dense_copy(pair.rho1)
    assert values(d0, d1) == forward
    context = _pair_context(d0, d1)
    assert _pair_context(d0, d1) is context
    for a, b, expected in ((d1, d0, backward), (d0, other, forward), (other, d0, backward),
                           (d0, d1, forward)):
        assert _pair_context(a, b) is not context
        context = _pair_context(a, b)
        assert values(a, b) == expected
        assert _pair_context(a, b) is context


def test_pair_context_keeps_no_operator_alive():
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[1])
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    q_s(d0, d1, 0.5)
    context = _pair_context(d0, d1)
    assert bounds._last_context is context
    ref = weakref.ref(d1)
    del d1
    gc.collect()
    assert ref() is None and context.refs[1]() is None
    # the cache lets go of the context with the operator
    assert bounds._last_context is None
    assert context.refs[0]() is d0


@pytest.mark.parametrize("params", DENSE_CHECK_POINTS,
                         ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))])
def test_dense_overlap_blocks_match_dense_product(params):
    pair = build_hypothesis_pair(params)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    patterns = [spectral.nonzero_pattern(rho.to_dense()) for rho in (d0, d1)]
    groups = spectral.components(d0.space.total_dim, patterns)
    es0, es1 = (spectral.eigh(rho.to_dense(), groups) for rho in (d0, d1))
    (w0, v0), (w1, v1) = (dense_eigensystem(groups, es) for es in (es0, es1))
    table = dense_overlap_ref(v0, v1)
    # the per-block terms are the whole table, every other entry is zero, and
    # each term carries the eigenvalues of its two eigenvectors
    c, a, b = spectral.overlap_terms(es0, es1)
    cols = block_columns(groups)
    i = np.concatenate([np.repeat(col, col.shape[1], axis=1).ravel() for col in cols])
    j = np.concatenate([np.tile(col, col.shape[1]).ravel() for col in cols])
    blocks = np.zeros_like(table)
    blocks[i, j] = c
    assert np.abs(blocks - table).max() <= 1e-14
    assert np.array_equal(a, w0[i]) and np.array_equal(b, w1[j])
    # the dense lane's support mask, applied once, gives the per-call powers
    for s in (0.0, 0.25, 0.5, 1.0):
        ref = float(support_powers_ref(w0, s) @ table @ support_powers_ref(w1, 1.0 - s))
        assert q_s(d0, d1, s) == pytest.approx(ref, abs=1e-14), s


@pytest.mark.parametrize(
    "params",
    DENSE_CHECK_POINTS + (
        GOLDEN_POINT.with_updates(eta=0.0),
        GOLDEN_POINT.with_updates(eta=1.0),
        # a golden-sweep row at dim 285k, beyond every dense check
        golden_sweep_spec().fixed.with_updates(nbar2=20.0, nbar3=20.0, background="thermal"),
    ),
    ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))]
    + ["golden_eta0", "golden_eta1", "sweep_thermal_nbar20"])
def test_pair_context_matches_full_pass_oracle(params):
    pair = build_hypothesis_pair(params)
    sp = pair.structured
    d0, v = pair_full_arrays_ref(sp)
    spectrum = rank_one_spectrum(d0, sp.scale, sp.weight, v)
    direct = _PairContext(pair.rho0, pair.rho1)
    for s in np.linspace(0.0, 1.0, 21):
        s = float(s)
        assert spectral.diag_rank_one_trace_power(direct.terms, s) == \
            pytest.approx(trace_power_ref(d0, v, spectrum, s), rel=1e-13), s


def _with_ends(lo, hi):
    return st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi))


@st.composite
def protocol_points(draw):
    """The accepted domain at dense-checkable cutoffs, up to (2, 8, 8)."""
    background = draw(st.sampled_from(BACKGROUND_VARIANTS))
    nbar2, nbar3 = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    # the flat background needs round(nbar) levels
    low2, low3 = ((max(2, flat_levels(nbar2)), max(2, flat_levels(nbar3)))
                  if background == "flat" else (2, 2))
    cutoffs = (2, draw(st.integers(low2, 8)), draw(st.integers(low3, 8)))
    return ProtocolParams(theta=draw(_with_ends(0.0, math.pi / 2)), eta=draw(_with_ends(0.0, 1.0)),
                          nbar2=nbar2, nbar3=nbar3, cutoffs=cutoffs, background=background,
                          idler=draw(st.sampled_from(IDLER_VARIANTS)), tail_bound=math.inf)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(protocol_points())
# theta = pi/2 puts a secular root within one ulp of its pole
@example(ProtocolParams(theta=math.pi / 2, eta=0.05, nbar2=0.4, nbar3=0.4, cutoffs=(2, 4, 4),
                        background="flat", tail_bound=math.inf))
def test_structured_matches_dense_over_the_domain(params):
    pair = build_hypothesis_pair(params)
    m0, m1 = pair.rho0.to_dense(), pair.rho1.to_dense()
    for s in (0.0, 0.25, 0.5, 1.0):
        assert pair.structured.q(s) == pytest.approx(qs_ref(m0, m1, s), abs=1e-10), s
        assert pair.structured.q(s) == pytest.approx(q_reference(params, s), abs=1e-10), s
    for pi0 in (0.2, 0.5):
        assert pair.structured.helstrom(pi0) == \
            pytest.approx(helstrom_ref(m0, m1, pi0), abs=1e-10), pi0
    # the curve is one grid evaluation, equal to the float calls bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        report = evaluate_point(params, pair=pair)
    assert report.q_curve == tuple((s, pair.structured.q(s)) for s in GRID)


@pytest.mark.parametrize("params", DENSE_CHECK_POINTS,
                         ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))])
def test_dense_chernoff_curve_equals_float_calls_bit_for_bit(params):
    pair = build_hypothesis_pair(params)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    assert chernoff(d0, d1).grid == tuple((s, q_s(d0, d1, s)) for s in GRID)


def _count_trace_power(monkeypatch):
    """Record the ``s`` of every ``diag_rank_one_trace_power`` call, through
    both of its bindings."""
    original = spectral.diag_rank_one_trace_power
    calls = []

    def counted(terms, s):
        calls.append(s)
        return original(terms, s)

    for module in (spectral, bounds):
        monkeypatch.setattr(module, "diag_rank_one_trace_power", counted)
    return calls


def _count_slopes(monkeypatch):
    """Record the ``s`` of every ``dQ/ds`` evaluation of the search."""
    original = bounds._slopes
    calls = []

    def counted(terms, ln_ratio, s):
        calls.append(s)
        return original(terms, ln_ratio, s)

    monkeypatch.setattr(bounds, "_slopes", counted)
    return calls


def test_chernoff_search_makes_one_grid_call(monkeypatch):
    pair = build_hypothesis_pair(GOLDEN_POINT)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    calls = _count_trace_power(monkeypatch)
    slopes = _count_slopes(monkeypatch)
    # one grid call for the curve and one float call at s*; evaluate_point
    # reads q_half off the grid.  dQ/ds at both ends, then at most 6 Newton steps
    for run in (lambda: evaluate_point(GOLDEN_POINT, pair=pair), lambda: chernoff(d0, d1)):
        calls.clear()
        slopes.clear()
        result = run()
        grids = [s for s in calls if np.ndim(s) == 1]
        assert len(grids) == 1 and tuple(grids[0].tolist()) == GRID
        assert [s for s in calls if np.ndim(s) == 0] == [result.s_star]
        assert slopes[:2] == [0.0, 1.0] and len(slopes) <= 8
        assert all(type(s) is float for s in slopes + [result.s_star])


def _two_exponentials(c1, a1, b1, c2, a2, b2):
    """The terms of ``Q(s) = A e^{alpha s} + B e^{beta s}``, with ``A = c1 b1``,
    ``alpha = ln(a1 / b1)`` and likewise ``B`` and ``beta``, and the ``s``
    where ``dQ/ds = 0``: ``e^{(alpha - beta) s} = -B beta / (A alpha)``."""
    big_a, alpha, big_b, beta = c1 * b1, math.log(a1 / b1), c2 * b2, math.log(a2 / b2)
    s_exact = math.log(-big_b * beta / (big_a * alpha)) / (alpha - beta)
    return (np.array([c1, c2]), np.array([a1, a2]), np.array([b1, b2])), s_exact


def test_minimize_matches_a_two_exponential_closed_form(monkeypatch):
    terms, s_exact = _two_exponentials(0.5, 0.8, 0.2, 0.5, 0.1, 0.7)
    calls = _count_trace_power(monkeypatch)
    result = bounds._minimize(terms)
    assert sum(np.ndim(s) == 1 for s in calls) == 1
    assert 0.4 < s_exact < 0.6
    assert result.s_star == pytest.approx(s_exact, abs=1e-15)
    c, a, b = terms
    assert result.q_star == pytest.approx(float(np.sum(c * a ** s_exact * b ** (1.0 - s_exact))),
                                          abs=1e-15)
    assert result.grid == tuple(zip(GRID, spectral.diag_rank_one_trace_power(
        terms, np.array(GRID)).tolist()))


def test_minimize_bisects_when_a_newton_step_leaves_the_bracket(monkeypatch):
    # Q(s) = 0.8 e^{-s} + e^{200 s - 100}: the grid minimum is s = 0.45, and
    # the first Newton step from it lands near 0.66, outside [0.4, 0.5]
    terms, s_exact = _two_exponentials(1.0, 0.8 / math.e, 0.8, 1.0, math.exp(100.0),
                                       math.exp(-100.0))
    slopes = _count_slopes(monkeypatch)
    result = bounds._minimize(terms)
    assert result.s_star == pytest.approx(s_exact, abs=1e-15)
    assert slopes[2:4] == [0.45, 0.475]  # the grid minimum, then its bracket's midpoint
    assert all(0.4 <= s <= 0.5 for s in slopes[2:]) and len(slopes) <= 10


@pytest.mark.parametrize("bad, value", [("c", -1e-300), ("c", math.nan), ("c", math.inf),
                                        ("a", 0.0), ("a", -0.1), ("a", math.nan),
                                        ("b", 0.0), ("b", -0.1), ("b", math.nan)])
def test_minimize_certifies_log_convexity_exactly(bad, value):
    # Q_s is log-convex when every c is finite and >= 0 and every a, b > 0;
    # any other term raises, however small its effect on the curve
    terms = {"c": [0.5, 0.5], "a": [0.8, 0.1], "b": [0.2, 0.7]}
    terms[bad][1] = value
    with pytest.raises(NumericalError, match="not certified convex"):
        bounds._minimize(tuple(np.array(terms[name]) for name in "cab"))


@pytest.mark.parametrize("params", [
    GOLDEN_POINT, GOLDEN_POINT_TRACED, AUDIT_POINT, AUDIT_POINT_SMALL,
    ProtocolParams(theta=0.3, eta=0.5, nbar2=20.0, nbar3=20.0, background="flat"),
    AUDIT_POINT_SMALL.with_updates(background="thermal"),
    pytest.param(AUDIT_POINT_SMALL.with_updates(eta=1e-5), marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 15: dQ/ds cancels at eta = 1e-5, 9.6e-10 off")),
], ids=["golden", "golden_traced", "audit", "audit_small", "flat20", "thermal20",
        "flat20_eta1e-5"])
def test_s_star_matches_the_40_digit_root_of_dq(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        report = evaluate_point(params)
    assert abs(report.s_star - s_star_reference(params)) <= 1e-10


SLOPE_S = (0.05, 0.3, 0.5, 0.7, 0.95)
SLOPE_REL = 1e-13


def _slopes_and_size(terms, s):
    """``bounds._slopes`` at ``s`` and ``sum |c a^s b^{1-s} ln(a/b)|``, the
    size of the terms of ``dQ/ds``, which may cancel to far below it."""
    c, a, b = terms
    ln_ratio = np.log(a / b)
    dq, d2q = bounds._slopes(terms, ln_ratio, s)
    return dq, d2q, float(np.sum(np.abs(c * a ** s * b ** (1.0 - s) * ln_ratio)))


@pytest.mark.parametrize("params", [
    GOLDEN_POINT, GOLDEN_POINT_TRACED, AUDIT_POINT, AUDIT_POINT_SMALL,
    pytest.param(AUDIT_POINT_SMALL.with_updates(eta=1e-5), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 15: dQ/ds cancels at eta = 1e-5, 1.9e-12 of its size off")),
    pytest.param(AUDIT_POINT_SMALL.with_updates(background="thermal"), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 13: support defect, dQ/ds 3.7e-11 of its size off")),
], ids=["golden", "golden_traced", "flat50", "flat20", "flat20_eta1e-5", "thermal20"])
def test_slopes_match_the_40_digit_derivatives(params):
    # d2Q/ds2 is a sum of nonnegative terms, so it is gated relative to itself
    terms = build_hypothesis_pair(params).structured._terms
    for s in SLOPE_S:
        dq, d2q, size = _slopes_and_size(terms, s)
        assert abs(dq - dq_reference(params, s)) <= SLOPE_REL * size, s
        d2q_ref = d2q_reference(params, s)
        assert abs(d2q - d2q_ref) <= SLOPE_REL * d2q_ref, s


@pytest.mark.parametrize("params", DENSE_CHECK_POINTS,
                         ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))])
def test_dense_and_structured_slopes_agree(params):
    pair = build_hypothesis_pair(params)
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    dense = _pair_context(d0, d1).terms
    for s in SLOPE_S:
        dq, d2q, size = _slopes_and_size(pair.structured._terms, s)
        dense_dq, dense_d2q, _ = _slopes_and_size(dense, s)
        assert abs(dense_dq - dq) <= SLOPE_REL * size, s
        assert abs(dense_d2q - d2q) <= SLOPE_REL * d2q, s


def _q0_identity(params):
    """``Q_0 = Tr(Pi_0 rho1)``: ``1 - eta sin^2(2 theta) / 2`` for the pure
    idler and 1 for the traced one, wherever the background holds levels 0 and 1."""
    if params.idler == "traced":
        return 1.0
    return 1.0 - params.eta * math.sin(2.0 * params.theta) ** 2 / 2.0


@pytest.mark.parametrize("idler", IDLER_VARIANTS)
@pytest.mark.parametrize("nbar", (2.0, 50.0, 1e3))
def test_q_endpoint_identities_at_flat_points(nbar, idler):
    # for eta < 1, rho1 >= (1 - eta) rho0, so Q_1 = Tr rho0 = 1
    for theta in (0.01, 0.3, 1.2):
        for eta in (0.01, 0.3, 0.5, 0.9):
            params = ProtocolParams(theta=theta, eta=eta, nbar2=nbar, nbar3=nbar,
                                    background="flat", idler=idler)
            sp = build_hypothesis_pair(params).structured
            assert sp.q(1.0) == pytest.approx(1.0, abs=1e-13), (theta, eta)
            assert sp.q(0.0) == pytest.approx(_q0_identity(params), abs=1e-13), (theta, eta)


@st.composite
def identity_points(draw):
    """The accepted domain with eta < 1 at auto cutoffs, where the background
    holds levels 0 and 1 (a flat one needs round(nbar) >= 2).  ``nbar`` stops
    at 1e5 thermal and 1e6 flat (dims near 7e12 and 2e12), short of the
    per-mode cap of 1e7 levels: every array a point holds has cutoff length,
    and 60 such draws peak at about 240 MB."""
    background = draw(st.sampled_from(BACKGROUND_VARIANTS))
    low, high = (2.0, 1e6) if background == "flat" else (0.01, 1e5)
    return ProtocolParams(theta=draw(_with_ends(0.0, math.pi / 2)),
                          eta=draw(st.floats(0.0, 1.0, exclude_max=True)),
                          nbar2=draw(st.floats(low, high)), nbar3=draw(st.floats(low, high)),
                          background=background, idler=draw(st.sampled_from(IDLER_VARIANTS)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(identity_points())
# where the support threshold drops background mass from rho1
@example(ProtocolParams(theta=0.01, eta=0.5, nbar2=3.0, nbar3=3.0))
@example(ProtocolParams(theta=0.01, eta=0.5, nbar2=1e4, nbar3=1e4, background="flat",
                        idler="traced"))
@example(ProtocolParams(theta=0.01, eta=0.9, nbar2=1e4, nbar3=1e4, background="flat"))
def test_q_endpoint_identities_over_the_domain(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        sp = build_hypothesis_pair(params).structured
    assert sp.q(1.0) == pytest.approx(1.0, abs=1e-13)
    assert sp.q(0.0) == pytest.approx(_q0_identity(params), abs=1e-13)
    for s in (0.0, 0.25, 0.5, 1.0):
        assert sp.q(s) == pytest.approx(q_reference(params, s), abs=1e-10), s


def test_dense_lane_allocates_by_blocks():
    # dim 800 with blocks of size 2; peaks in units of one complex dim x dim matrix
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[2])
    unit = 16 * pair.rho0.space.total_dim ** 2

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    # the returned matrix is one unit
    assert peak(pair.rho1.to_dense) <= 1.1
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    assert peak(lambda: helstrom_optimum(d0, d1)) <= 0.25
    # Helstrom has split the pair, so only the decompositions on that split,
    # the Q_s terms and the search are traced
    assert peak(lambda: chernoff(d0, d1)) <= 0.05


def _arrays(x):
    """Every array reachable from ``x`` through dataclass fields and tuples."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _arrays(item)
    elif hasattr(x, "__dataclass_fields__"):
        yield from _arrays(tuple(vars(x).values()))


def test_dense_eigensystem_holds_no_array_of_the_full_dimension_squared():
    # dim 800 with blocks of size 2; in units of one complex dim x dim matrix
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[2])
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    unit = 16 * d0.space.total_dim ** 2
    tracemalloc.start()
    try:
        # both scans, the joint split, both eigensystems and the Q_s terms
        context = _pair_context(d0, d1)
        context.terms
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 0.05 * unit
    assert peak < 0.15 * unit
    arrays = list(_arrays((context.terms, tuple(context.groups))))
    assert len(arrays) == 3 + len(context.groups)
    assert max(arr.nbytes for arr in arrays) < 0.01 * unit
    # the operators cache nothing: the scans' patterns died with the split
    assert [list(vars(rho)) for rho in (d0, d1)] == [["space", "structure"]] * 2


def test_dense_lane_scans_each_operator_once(monkeypatch):
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[1])
    d0, d1 = dense_copy(pair.rho0), dense_copy(pair.rho1)
    scans = []
    original = spectral.nonzero_pattern

    def counting(mat):
        scans.append(mat)
        return original(mat)

    monkeypatch.setattr(spectral, "nonzero_pattern", counting)
    chernoff(d0, d1)
    q_s(d0, d1, 0.5)
    helstrom_optimum(d0, d1)
    assert len(scans) == 2


def test_thermal_point_allocates_no_array_of_the_full_dimension():
    # dim 1.7M, where one float64 array of the full dimension is 13.9 MB
    params = ProtocolParams(theta=0.01, eta=0.01, nbar2=50.0, nbar3=50.0)
    assert params.space().total_dim > 1_700_000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        tracemalloc.start()
        try:
            pair = build_hypothesis_pair(params)
            evaluate_point(params, pair=pair)
            audit_overlap(params, pair=pair, fit_gap=True)
            evaluate_point(params)
            # the operator-level entry points on the pair's own operators
            rho0, rho1 = pair.rho0, pair.rho1
            grid = [float(s) for s in np.linspace(0.0, 1.0, 21)]
            forward = [q_s(rho0, rho1, s) for s in grid]
            chernoff(rho0, rho1)
            helstrom_optimum(rho0, rho1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    # the detector hands back the pair itself, so q_s reads the same sum
    assert forward == [pair.structured.q(s) for s in grid]
