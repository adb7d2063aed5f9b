import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from triqi import states
from triqi.bounds import q_s
from triqi.cli import main
from triqi.errors import DenseLimitError, TruncationError
from triqi.fock import as_diag_plus_low_rank
from triqi.presets import GOLDEN_POINT, GOLDEN_POINT_TRACED
from triqi.states import (DEFAULT_TAIL_BOUND, ProtocolParams, auto_cutoff,
                          background_marginals, build_hypothesis_pair, evolve_exact,
                          flat_levels, params_from_mapping, thermal_marginal,
                          thermal_probs, thermal_tail_mass, triplet_amplitudes)
from triqi.sweep import SweepSpec, run_sweep
from triqi.textfmt import parse_key_values

from oracles import (assert_density_invariants, chain_amplitudes_ref, pair_matrices_ref,
                     partial_trace_ref, triplet_ket_ref)

# chain amplitudes at theta=0.1, cutoff 8, frozen from the scipy expm oracle
CHAIN_GOLDEN_01 = np.array([
    0.9950370934128467 + 0.0j,
    0.0 - 0.09852427907165319j,
    -0.013729309089002474 + 0.0j,
    0.0 + 0.0023318888776550327j,
    0.00045516068509896776 + 0.0j,
    0.0 - 9.887236125437869e-05j,
    -2.3335647592612987e-05 + 0.0j,
    0.0 + 6.370255854891498e-06j,
])


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(theta=-0.1, eta=0.1, nbar2=1.0, nbar3=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(theta=0.1, eta=1.5, nbar2=1.0, nbar3=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(theta=0.1, eta=0.1, nbar2=0.0, nbar3=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(theta=0.1, eta=0.1, nbar2=1.0, nbar3=1.0, background="fuzzy")
    with pytest.raises(ValueError):
        ProtocolParams(theta=0.1, eta=0.1, nbar2=1.0, nbar3=1.0, cutoffs=(2, 1, 6))


@pytest.mark.parametrize("field,value", [
    ("theta", math.nan), ("theta", math.inf), ("nbar2", math.nan), ("nbar3", math.nan),
    ("nbar2", math.inf), ("nbar3", math.inf), ("tail_bound", math.nan),
    ("tail_bound", 0.0), ("tail_bound", -1.0)])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        GOLDEN_POINT.with_updates(**{field: value})


def test_regime_flags():
    p = ProtocolParams(theta=0.01, eta=0.01, nbar2=50.0, nbar3=50.0, background="flat")
    flags = p.regime_flags()
    assert flags.high_noise and flags.small_theta and flags.small_eta
    assert flags.eta_vs_invn2  # 0.01 * 2500 = 25 >= 10
    low = p.with_updates(eta=1e-4).regime_flags()
    assert not low.eta_vs_invn2
    assert not p.with_updates(nbar2=2.0).regime_flags().high_noise


def test_three_photon_state_limits():
    assert triplet_amplitudes(0.0).tolist() == [1.0, 0.0]
    c000, c111 = triplet_amplitudes(np.pi / 2)
    assert abs(c111 + 1j) < 1e-12
    assert abs(c000) < 1e-12


def test_three_photon_state_amplitudes():
    c000, c111 = triplet_amplitudes(0.1)
    assert c000 == pytest.approx(0.9950041652780258, abs=1e-15)
    assert c111 == pytest.approx(-0.09983341664682815j, abs=1e-15)
    # the two amplitudes are the dense ket's only nonzero entries, at |000> and |111>
    ket = triplet_ket_ref(0.1, (2, 6, 6))
    assert np.flatnonzero(ket).tolist() == [0, 36 + 6 + 1]
    assert np.array_equal(ket[[0, 43]], triplet_amplitudes(0.1))


def test_three_photon_state_needs_two_levels():
    # every mode must hold the |111> component
    with pytest.raises(ValueError, match="cutoffs must be three values >= 2"):
        GOLDEN_POINT.with_updates(cutoffs=(1, 2, 2))


@pytest.mark.parametrize("bad", [6.9, 2.5, math.inf, -math.inf, math.nan, "6", None])
def test_cutoffs_must_be_integers(bad):
    # int() would truncate 6.9, overflow on inf and parse "6"
    with pytest.raises(ValueError, match="cutoffs must be three values >= 2"):
        GOLDEN_POINT.with_updates(cutoffs=(2, bad, 6))


@pytest.mark.parametrize("good", [6, 6.0, np.int64(6), np.int32(6), np.uint8(6), np.float64(6.0)])
def test_cutoffs_accept_integral_values_as_ints(good):
    cutoffs = GOLDEN_POINT.with_updates(cutoffs=(2, good, np.int64(6))).cutoffs
    assert cutoffs == (2, 6, 6)
    assert all(type(c) is int for c in cutoffs)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2])
@pytest.mark.parametrize("idler", states.IDLER_VARIANTS)
@pytest.mark.parametrize("cutoffs", [(2, 6, 6), (3, 5, 7), (4, 2, 3)])
def test_triplet_entries_are_the_rotated_ket_support(cutoffs, idler, theta):
    params = ProtocolParams(theta=theta, eta=0.3, nbar2=1.0, nbar3=1.0, cutoffs=cutoffs,
                            idler=idler, tail_bound=math.inf)
    pair = build_hypothesis_pair(params)
    # the triplet in rho0's eigenbasis: the idler rotation applied to mode 0
    psi = triplet_ket_ref(theta, cutoffs).reshape(cutoffs)
    rotation = pair.rho0.structure.idler_rotation
    psi = np.tensordot(rotation.conj().T, psi, axes=([1], [0]))
    v = psi.reshape(-1)
    sp = pair.structured
    assert sp.v_index.dtype == np.intp
    assert np.array_equal(sp.v_index, np.flatnonzero(v))
    assert_allclose(sp.v_value, v[sp.v_index], rtol=1e-14, atol=0)


def test_evolve_exact_zero_time():
    ev = evolve_exact(0.0, 6)
    assert_allclose(ev.chain_amplitudes, np.eye(6)[0], atol=1e-15)
    assert ev.leakage < 1e-30


def test_evolve_exact_first_order():
    theta = 1e-3
    ev = evolve_exact(theta, 6)
    assert abs(ev.chain_amplitudes[1] + 1j * theta) < 2 * theta ** 3


def test_evolve_exact_golden_amplitudes():
    ev = evolve_exact(0.1, 8)
    assert_allclose(ev.chain_amplitudes, CHAIN_GOLDEN_01, atol=1e-13)
    assert_allclose(ev.chain_amplitudes, chain_amplitudes_ref(0.1, 8), atol=1e-13)
    assert ev.leakage < 1e-9


def test_evolve_exact_leakage_guard():
    with pytest.raises(TruncationError):
        evolve_exact(0.2, 8)  # top-level population ~3.5e-7
    ev = evolve_exact(0.2, 16)
    assert ev.leakage < 1e-9


def test_evolution_cubic_on_support_quadratic_off_support():
    devs = {}
    fulls = {}
    for theta in (0.2, 0.1, 0.05):
        ev = evolve_exact(theta, 24)
        devs[theta] = ev.support_deviation()
        fulls[theta] = ev.full_deviation()
    # support-restricted deviation shrinks with the cube of theta
    assert 0.1 <= devs[0.1] / devs[0.2] <= 0.15625
    assert 0.1 <= devs[0.05] / devs[0.1] <= 0.15625
    ref = devs[0.2] / 0.2 ** 3
    for theta in (0.1, 0.05):
        assert abs(devs[theta] / theta ** 3 - ref) <= 0.2 * ref
    # the full-chain deviation is second order (leak into the third level)
    assert 0.2 <= fulls[0.1] / fulls[0.2] <= 0.3
    assert 0.2 <= fulls[0.05] / fulls[0.1] <= 0.3


def _chain_mean_photons_ref(ev, mode):
    """<n_mode> of the chain state spread over the full Fock basis of
    ``chain_cutoff`` levels per mode, normalized there."""
    c = len(ev.chain_amplitudes)
    ket = np.zeros((c, c, c), dtype=complex)
    ket[np.arange(c), np.arange(c), np.arange(c)] = ev.chain_amplitudes
    ket /= np.linalg.norm(ket)
    return float(np.sum(np.abs(ket) ** 2 * np.indices(ket.shape)[mode]))


def test_mean_photon_number():
    assert evolve_exact(0.0, 8).mean_photons < 1e-30  # rounding of the eigenbasis
    ev = evolve_exact(0.1, 12)
    n_exact = ev.mean_photons
    assert abs(n_exact - 0.01) <= 0.1 ** 3
    assert n_exact == pytest.approx(0.010101215656, abs=1e-9)
    assert n_exact == pytest.approx(_chain_mean_photons_ref(ev, 0), rel=1e-15)


def test_mean_photon_symmetric_across_modes():
    # one value serves all three modes: |nnn> holds n photons on each
    ev = evolve_exact(0.15, 16)
    for mode in range(3):
        assert ev.mean_photons == pytest.approx(_chain_mean_photons_ref(ev, mode), rel=1e-15)


def test_thermal_probs_form():
    p = thermal_probs(1.0, 64)
    tail = thermal_tail_mass(1.0, 64)
    # pre-truncation value recovered by undoing the renormalization
    assert p[0] * (1.0 - tail) == pytest.approx(0.5, abs=1e-15)
    assert p[3] / p[2] == pytest.approx(0.5, abs=1e-14)


def test_thermal_zero_temperature_limit():
    probs = thermal_marginal(1e-9, 4, DEFAULT_TAIL_BOUND)
    assert probs[0] == pytest.approx(1.0, abs=1e-8)


def test_thermal_tail_and_guard():
    assert thermal_tail_mass(5.0, 128) == pytest.approx(7.32e-11, rel=1e-2)
    thermal_marginal(5.0, 128, DEFAULT_TAIL_BOUND)  # passes the default bound
    with pytest.raises(TruncationError):
        thermal_marginal(5.0, 16, DEFAULT_TAIL_BOUND)


def test_auto_cutoff_minimal():
    for nbar in (1.0, 5.0, 20.0, 50.0):
        k = auto_cutoff(nbar)
        assert thermal_tail_mass(nbar, k) < 1e-8
        assert thermal_tail_mass(nbar, k - 1) >= 1e-8


def test_auto_cutoff_cap():
    with pytest.raises(TruncationError, match="per-mode cap 10000000"):
        auto_cutoff(1e6)  # would need ~1.8e7 levels, over the per-mode cap
    # nbar / (nbar + 1) rounds to 1 here, so the tail never falls below the bound
    with pytest.raises(TruncationError, match="nbar=1e\\+17 needs more levels than the "
                                              "per-mode cap"):
        auto_cutoff(1e17)


def test_flat_levels_capped(monkeypatch):
    # flat levels obey the same per-mode cap; explicit cutoffs are not auto-selected
    monkeypatch.setattr(states, "MAX_MODE_CUTOFF", 64)
    flat = ProtocolParams(theta=0.01, eta=0.01, nbar2=100.0, nbar3=100.0, background="flat")
    with pytest.raises(TruncationError, match="flat levels 100 for nbar=100.0 exceeds the "
                                              "per-mode cap 64"):
        flat.resolved_cutoffs()
    assert flat.with_updates(cutoffs=(2, 100, 100)).resolved_cutoffs() == (2, 100, 100)
    spec = SweepSpec(axes=(("nbar", (50.0, 100.0)),), fixed=flat, outputs=("q_half",))
    ok, capped = run_sweep(spec).rows
    assert ok[-1] == "" and ok[1] > 0
    assert capped[-1].startswith("TruncationError: flat levels 100")


@pytest.mark.parametrize("tail_bound", [0.0, -1.0, -math.inf, math.nan])
def test_auto_cutoff_rejects_non_positive_tail_bound(tail_bound):
    with pytest.raises(ValueError, match="tail_bound must be positive"):
        auto_cutoff(3.0, tail_bound)
    # inf disables the check and any bound >= 1 holds at the smallest cutoff
    for disabled in (math.inf, 1.0, 2.0):
        assert auto_cutoff(3.0, disabled) == 2


def test_evolve_exact_needs_four_levels():
    with pytest.raises(ValueError):
        evolve_exact(0.1, 3)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_evolve_exact_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match=f"theta must be finite, got {theta}"):
        evolve_exact(theta, 16)


def test_flat_levels_rounding():
    assert flat_levels(4.0) == 4
    assert flat_levels(4.5) == 5
    assert flat_levels(0.7) == 1


def test_background_flat_uniform():
    p = ProtocolParams(theta=0.0, eta=0.0, nbar2=4.0, nbar3=4.0, background="flat")
    b2, b3 = background_marginals(p)
    assert_allclose(np.kron(b2, b3), np.full(16, 1 / 16.0), atol=1e-15)


def test_background_thermal_product():
    p = ProtocolParams(theta=0.0, eta=0.0, nbar2=1.0, nbar3=1.0, cutoffs=(2, 30, 30))
    b2, b3 = background_marginals(p)
    tail = thermal_tail_mass(1.0, 30)
    for j, k in ((0, 0), (1, 2), (3, 1)):
        raw = 2.0 ** -(j + k + 2)
        assert b2[j] * b3[k] * (1 - tail) ** 2 == pytest.approx(raw, abs=1e-12)


def test_flat_vs_thermal_trace_distance_golden():
    # frozen from the dense diagonal comparison at nbar=20, cutoff 256
    nbar, cutoff = 20.0, 256
    pt = np.kron(thermal_probs(nbar, cutoff), thermal_probs(nbar, cutoff))
    pf = np.zeros(cutoff)
    pf[:20] = 1 / 20.0
    pf = np.kron(pf, pf)
    td = 0.5 * np.abs(pt - pf).sum()
    assert td == pytest.approx(0.6117303612987981, abs=1e-12)


def test_hypothesis_h0_theta_zero_flat():
    p = ProtocolParams(theta=0.0, eta=0.0, nbar2=4.0, nbar3=4.0, background="flat")
    mat = build_hypothesis_pair(p).rho0.to_dense()
    expected = np.zeros((32, 32), dtype=complex)
    expected[:16, :16] = np.eye(16) / 16.0
    assert_allclose(mat, expected, atol=1e-15)


@pytest.mark.parametrize("background", ["thermal", "flat"])
@pytest.mark.parametrize("idler", ["paper_pure", "traced"])
@pytest.mark.parametrize("theta,eta", [(0.0, 0.0), (0.1, 0.05), (0.3, 0.5)])
def test_hypothesis_states_normalized(background, idler, theta, eta):
    p = ProtocolParams(theta=theta, eta=eta, nbar2=3.0, nbar3=4.0,
                       cutoffs=(2, 8, 8), background=background, idler=idler,
                       tail_bound=math.inf)
    pair = build_hypothesis_pair(p)
    assert_density_invariants(pair.rho0)
    assert_density_invariants(pair.rho1)


def test_hypothesis_h1_limits():
    pair0 = build_hypothesis_pair(GOLDEN_POINT.with_updates(eta=0.0))
    assert_allclose(pair0.rho1.to_dense(), pair0.rho0.to_dense(), atol=1e-14)
    p1 = GOLDEN_POINT.with_updates(eta=1.0)
    psi = triplet_ket_ref(p1.theta, p1.resolved_cutoffs())
    assert_allclose(build_hypothesis_pair(p1).rho1.to_dense(), np.outer(psi, psi.conj()),
                    atol=1e-14)


def test_hypothesis_pair_matches_direct_mixture_oracle():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    r0, r1, _ = pair_matrices_ref(0.1, 0.05, 3.0, 6, idler="pure")
    assert_allclose(pair.rho0.to_dense(), r0, atol=1e-14)
    assert_allclose(pair.rho1.to_dense(), r1, atol=1e-14)
    tr = build_hypothesis_pair(GOLDEN_POINT_TRACED)
    r0t, r1t, _ = pair_matrices_ref(0.1, 0.05, 3.0, 6, idler="traced")
    assert_allclose(tr.rho1.to_dense(), r1t, atol=1e-14)


def test_hypothesis_pair_arrays_are_read_only(monkeypatch):
    pair = build_hypothesis_pair(GOLDEN_POINT)
    rotation = pair.rho1.structure.idler_rotation
    sp = pair.structured
    for arr in (rotation, *sp.factors, sp.v_index, sp.v_value):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the structured pair holds rho1's diagonal as per-mode factors and its
    # triplet as the nonzero entries only; rho1 holds that pair itself
    assert [f.name for f in fields(pair)] == ["params", "rho0", "rho1"]
    assert [f.name for f in fields(sp)] == ["factors", "scale", "weight", "v_index", "v_value"]
    assert len(sp.factors) == 3
    assert pair.rho1.structure.pair is sp
    assert np.count_nonzero(sp.v_value) == len(sp.v_index)
    # both hypotheses have one shape: rho0 and rho1 hold the same pair and
    # idler rotation, so the operator-level Q_s neither converts nor
    # decomposes anything
    eigh_calls = []
    original_eigh = np.linalg.eigh

    def counted_eigh(*args, **kwargs):
        eigh_calls.append(args)
        return original_eigh(*args, **kwargs)

    pairs = [build_hypothesis_pair(p) for p in (GOLDEN_POINT, GOLDEN_POINT_TRACED)]
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for pair in pairs:
        s0, s1 = pair.rho0.structure, pair.rho1.structure
        assert as_diag_plus_low_rank(pair.rho0) is pair.rho0
        assert s0.pair is s1.pair is pair.structured
        assert s0.idler_rotation is s1.idler_rotation
        assert (s0.hypothesis, s1.hypothesis) == (0, 1)
        for s in (0.25, 0.5):
            assert q_s(pair.rho0, pair.rho1, s) == pair.structured.q(s)
    assert eigh_calls == []


def test_hypothesis_h1_affine_in_eta():
    etas = (0.0, 0.3, 1.0)
    mats = {eta: build_hypothesis_pair(GOLDEN_POINT.with_updates(eta=eta)).rho1.to_dense()
            for eta in etas}
    mixed = 0.7 * mats[0.0] + 0.3 * mats[1.0]
    assert np.abs(mixed - mats[0.3]).max() <= 1e-12


def test_traced_idler_equals_partial_trace():
    p = GOLDEN_POINT_TRACED
    cutoffs = p.resolved_cutoffs()
    amps = triplet_ket_ref(p.theta, cutoffs)
    reduced = partial_trace_ref(np.outer(amps, amps.conj()), cutoffs, (0,))
    rho0 = build_hypothesis_pair(p).rho0.to_dense()
    idler_factor = partial_trace_ref(rho0, cutoffs, (0,))
    assert np.abs(reduced - idler_factor[:2, :2]).max() <= 1e-12


def test_chain_ket_bounded_by_the_dense_limit(monkeypatch, capsys):
    # the chain matrix, chain_cutoff x chain_cutoff, is the only dense array
    # that evolve_exact builds, so the chain cutoff is capped at the dense limit
    monkeypatch.setattr(states, "DEFAULT_DENSE_LIMIT", 8)
    assert evolve_exact(0.01, 8).chain_amplitudes.shape == (8,)
    with pytest.raises(DenseLimitError, match="chain cutoff 9 needs a chain matrix of "
                                              "dimension 9 > dense limit 8"):
        evolve_exact(0.01, 9)
    assert main(["state", "--theta", "0.01", "--chain-cutoff", "9"]) == 2
    assert "numeric failure: chain cutoff 9" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["state", "--cutoff", "1000", "--tail-bound", "1"],
                                  ["state", "--chain-cutoff", "64"]])
def test_state_memory_does_not_grow_with_the_space(argv, capsys):
    # the state holds two closed-form amplitudes and the chain, never a ket
    # over the 2 * cutoff**2 or chain_cutoff**3 Fock states
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "mean photons mode 2" in capsys.readouterr().out
    assert peak < 2 ** 20


def test_key_values_round_trip():
    text = """
# golden point
theta = 0.1
eta = 0.05
nbar2 = 3
nbar3 = 3
cutoffs = 2,6,6
background = thermal
idler = paper_pure
tail_bound = inf
"""
    assert params_from_mapping(parse_key_values(text)) == GOLDEN_POINT


def test_params_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError):
        params_from_mapping({"theta": "0.1", "bogus": "1"})
