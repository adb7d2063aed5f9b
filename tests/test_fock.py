import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from triqi import spectral
from triqi.errors import DenseLimitError, NumericalError
from triqi.fock import (DensityOperator, Ket, as_diag_plus_low_rank, build_space, partial_trace,
                        tensor_ket)
from triqi.presets import DENSE_CHECK_POINTS, GOLDEN_POINT
from triqi.states import IDLER_VARIANTS, build_hypothesis_pair, three_photon_state

from oracles import partial_trace_ref, rotated_dense_ref


@pytest.mark.parametrize("modes,cutoffs,dim", [
    (3, [2, 2, 2], 8),
    (1, [5], 5),
    (3, [2, 6, 6], 72),
])
def test_build_space_dimensions(modes, cutoffs, dim):
    space = build_space(modes, cutoffs)
    assert space.total_dim == dim
    assert space.total_dim == int(np.prod(space.cutoffs))


def test_build_space_rejects_bad_input():
    with pytest.raises(ValueError):
        build_space(2, [2, 0])
    with pytest.raises(ValueError):
        build_space(0, [])
    with pytest.raises(ValueError):
        build_space(2, [2])


def test_dense_limit_guard():
    space = build_space(2, [40, 40], dense_limit=1000)
    with pytest.raises(DenseLimitError):
        space.require_dense()
    probs = np.full(1600, 1 / 1600)
    rho = DensityOperator.diagonal(space, probs)
    assert rho.trace() == pytest.approx(1.0)  # structured ops stay available
    with pytest.raises(DenseLimitError):
        rho.to_dense()


def test_dense_to_dense_returns_the_stored_read_only_matrix():
    space = build_space(1, [3])
    rho = DensityOperator.dense(space, np.diag([0.5, 0.3, 0.2]))
    mat = rho.to_dense()
    assert mat is rho.structure.matrix
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.data())
def test_index_bijection(cutoffs, data):
    space = build_space(len(cutoffs), cutoffs)
    index = data.draw(st.integers(min_value=0, max_value=space.total_dim - 1))
    occ = space.occupations_of(index)
    assert all(0 <= n < c for n, c in zip(occ, cutoffs))
    assert space.index_of(occ) == index


def test_index_convention_mode0_slowest():
    space = build_space(3, [2, 6, 6])
    assert space.index_of((0, 0, 0)) == 0
    assert space.index_of((0, 0, 1)) == 1
    assert space.index_of((0, 1, 0)) == 6
    assert space.index_of((1, 0, 0)) == 36


def test_tensor_ket_basis_states():
    single = build_space(1, [2])
    zero = Ket.basis_state(single, (0,))
    one = Ket.basis_state(single, (1,))
    k000 = tensor_ket([zero, zero, zero])
    assert k000.amplitudes[0] == 1.0
    k111 = tensor_ket([one, one, one])
    assert k111.amplitudes[k111.space.index_of((1, 1, 1))] == 1.0
    assert np.count_nonzero(k111.amplitudes) == 1


def test_tensor_ket_bilinearity():
    single = build_space(1, [2])
    alpha, beta = 0.6, 0.8j
    sup = Ket.from_amplitudes(single, [alpha, beta])
    zero = Ket.basis_state(single, (0,))
    prod = tensor_ket([sup, zero])
    assert prod.amplitudes[prod.space.index_of((0, 0))] == pytest.approx(alpha)
    assert prod.amplitudes[prod.space.index_of((1, 0))] == pytest.approx(beta)


def test_tensor_ket_space_mismatch():
    single = build_space(1, [2])
    target = build_space(2, [2, 3])
    with pytest.raises(ValueError):
        tensor_ket([Ket.basis_state(single, (0,))] * 2, space=target)


def test_ket_norm_enforced():
    space = build_space(1, [2])
    with pytest.raises(NumericalError):
        Ket(space, np.array([1.0, 1.0]))
    k = Ket.from_amplitudes(space, [1.0, 1.0], normalize=True)
    assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_partial_trace_schmidt_form():
    space = build_space(3, [2, 2, 2])
    theta = 0.31
    rho = DensityOperator.from_ket(three_photon_state(theta, space))
    red = partial_trace(rho, [0]).to_dense()
    assert_allclose(red, np.diag([np.cos(theta) ** 2, np.sin(theta) ** 2]), atol=1e-12)


def test_partial_trace_pure_product():
    single = build_space(1, [3])
    a = Ket.from_amplitudes(single, [0.6, 0.8, 0.0])
    b = Ket.from_amplitudes(single, [0.0, 1.0, 0.0])
    rho = DensityOperator.from_ket(tensor_ket([a, b]))
    red = partial_trace(rho, [0]).to_dense()
    assert_allclose(red, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)


def test_partial_trace_preserves_trace_and_psd():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    red = partial_trace(pair.rho1, [1, 2])
    assert red.trace() == pytest.approx(1.0, abs=1e-12)
    red.validate()


def test_partial_trace_golden_against_contraction_oracle():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    red = partial_trace(pair.rho1, [1, 2]).to_dense()
    expected = partial_trace_ref(pair.rho1.to_dense(), (2, 6, 6), (1, 2))
    assert_allclose(red, expected, atol=1e-13)
    # frozen spot values from the dense contraction oracle
    assert red[0, 0].real == pytest.approx(0.13737098854939137, abs=1e-13)
    assert red[7, 7].real == pytest.approx(0.04992483036210915, abs=1e-13)
    assert np.linalg.norm(red) == pytest.approx(0.22141045764221273, abs=1e-12)


def test_partial_trace_structure_paths_agree():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    # tensor-product path on rho0 vs dense contraction
    red_tp = partial_trace(pair.rho0, [1, 2]).to_dense()
    red_ref = partial_trace_ref(pair.rho0.to_dense(), (2, 6, 6), (1, 2))
    assert_allclose(red_tp, red_ref, atol=1e-13)
    # diagonal path
    space = build_space(2, [3, 4])
    probs = np.arange(12, dtype=float)
    probs /= probs.sum()
    diag = DensityOperator.diagonal(space, probs)
    red_diag = partial_trace(diag, [0]).to_dense()
    assert_allclose(red_diag, partial_trace_ref(np.diag(probs).astype(complex), (3, 4), (0,)),
                    atol=1e-15)


@pytest.mark.parametrize("idler", IDLER_VARIANTS)
@pytest.mark.parametrize("point", range(len(DENSE_CHECK_POINTS)))
def test_rotated_to_dense_matches_kron_oracle(point, idler):
    rho1 = build_hypothesis_pair(DENSE_CHECK_POINTS[point].with_updates(idler=idler)).rho1
    # the traced idler is diagonal already; the pure one rotates mode 0
    assert (rho1.structure.mode_rotations[0] is None) == (idler == "traced")
    expected = rotated_dense_ref(rho1.structure, rho1.space.cutoffs)
    assert_allclose(rho1.to_dense(), expected, rtol=0, atol=1e-14)


def test_rotated_to_dense_two_rotated_modes_rank_one():
    rng = np.random.default_rng(7)
    cutoffs = (3, 2, 4)
    space = build_space(3, cutoffs)

    def unitary(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    factors = tuple(rng.uniform(size=c) for c in cutoffs)
    index = np.array([0, 5, 11, 23])
    pair = spectral.StructuredPair(factors, 0.7, 0.2, index,
                                   rng.normal(size=4) + 1j * rng.normal(size=4))
    rho = DensityOperator.diag_plus_low_rank(
        space, pair, mode_rotations=(unitary(3), None, unitary(4)))
    assert rho.structure.pair is pair
    expected = rotated_dense_ref(rho.structure, cutoffs)
    assert_allclose(rho.to_dense(), expected, rtol=0, atol=1e-14)
    assert rho.trace() == pytest.approx(np.trace(expected).real, rel=1e-14)


@st.composite
def diag_plus_low_rank_operators(draw):
    """DiagPlusLowRank operators on 1-3 modes of cutoffs 1-4: per-mode factors
    or one flat factor, a random unitary on any subset of the modes and 0-4
    nonzero entries of ``v``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cutoffs = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    dim = int(np.prod(cutoffs))
    if draw(st.booleans()):
        factors = (rng.uniform(size=dim),)
    else:
        factors = tuple(rng.uniform(size=c) for c in cutoffs)
    count = draw(st.integers(0, min(4, dim)))
    index = np.sort(rng.choice(dim, size=count, replace=False))
    pair = spectral.StructuredPair(factors, rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0), index,
                                   rng.normal(size=count) + 1j * rng.normal(size=count))
    rotations = []
    for c in cutoffs:
        q, r = np.linalg.qr(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
        rotations.append(q * (np.diag(r) / np.abs(np.diag(r))) if draw(st.booleans()) else None)
    return DensityOperator.diag_plus_low_rank(build_space(len(cutoffs), cutoffs), pair,
                                              rotations)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(diag_plus_low_rank_operators())
def test_block_to_dense_matches_kron_oracle(rho):
    expected = rotated_dense_ref(rho.structure, rho.space.cutoffs)
    assert_allclose(rho.to_dense(), expected, rtol=0, atol=1e-14)
    assert rho.trace() == pytest.approx(np.trace(expected).real, rel=1e-14)


def test_diag_plus_low_rank_one_rotation_per_mode():
    space = build_space(3, (2, 2, 2))
    pair = spectral.StructuredPair((np.full(2, 0.5),) * 3, 1.0, 0.0, np.zeros(0, dtype=int),
                                   np.zeros(0, dtype=complex))
    # no rotations means the identity on every mode
    rho = DensityOperator.diag_plus_low_rank(space, pair)
    assert rho.structure.mode_rotations == (None, None, None)
    assert_allclose(rho.to_dense(), np.eye(8) / 8, rtol=0, atol=0)
    for rotations in ((None, None), (np.eye(2),) * 4):
        with pytest.raises(ValueError, match="expected 3 mode rotations"):
            DensityOperator.diag_plus_low_rank(space, pair, mode_rotations=rotations)
    with pytest.raises(ValueError, match="pair dimension 8"):
        DensityOperator.diag_plus_low_rank(build_space(2, (2, 2)), pair)


def test_partial_trace_rejects_empty_keep():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    with pytest.raises(ValueError):
        partial_trace(pair.rho0, [])
    with pytest.raises(ValueError):
        partial_trace(pair.rho0, [5])


def test_partial_trace_of_structured_mixture():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    # rho1 is DiagPlusLowRank with a mode-0 rotation; reduction goes via dense
    red = partial_trace(pair.rho1, [0]).to_dense()
    expected = partial_trace_ref(pair.rho1.to_dense(), (2, 6, 6), (0,))
    assert_allclose(red, expected, atol=1e-13)
    assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_tensor_ket_multimode_factors():
    pair_space = build_space(2, [2, 3])
    single = build_space(1, [4])
    left = Ket.basis_state(pair_space, (1, 2))
    right = Ket.basis_state(single, (3,))
    combined = tensor_ket([left, right])
    assert combined.space.cutoffs == (2, 3, 4)
    assert combined.amplitudes[combined.space.index_of((1, 2, 3))] == 1.0


def test_as_diag_plus_low_rank_rejects_plain_dense():
    space = build_space(1, [3])
    rho = DensityOperator.dense(space, np.eye(3) / 3.0)
    with pytest.raises(NumericalError):
        as_diag_plus_low_rank(rho)


def test_density_operator_validate_catches_violations():
    space = build_space(1, [2])
    bad = DensityOperator.dense(space, np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(NumericalError):
        bad.validate()
    not_psd = DensityOperator.dense(space, np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(NumericalError):
        not_psd.validate()


def test_validate_dense_branch_reads_split_eigenvalues(monkeypatch):
    calls = []
    original = spectral.eigvalsh

    def counting(mat, *args):
        calls.append(len(mat))
        return original(mat, *args)

    monkeypatch.setattr(spectral, "eigvalsh", counting)
    pair = build_hypothesis_pair(GOLDEN_POINT)
    DensityOperator.dense(pair.rho1.space, pair.rho1.to_dense()).validate()
    # an indefinite 2x2 block on indices 0 and 2, between diagonal entries
    mat = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    mat[0, 2] = mat[2, 0] = 0.3
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        DensityOperator.dense(build_space(1, [4]), mat).validate()
    assert calls == [72, 4]


def test_validate_dense_branch_peaks_below_a_quarter_matrix():
    # dim 800 with blocks of size 2; in units of one complex dim x dim matrix
    pair = build_hypothesis_pair(DENSE_CHECK_POINTS[2])
    rho = DensityOperator.dense(pair.rho1.space, pair.rho1.to_dense())
    unit = 16 * rho.space.total_dim ** 2
    tracemalloc.start()
    try:
        rho.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * unit
