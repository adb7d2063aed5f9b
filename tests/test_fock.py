import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from triqi import spectral
from triqi.errors import DenseLimitError, NumericalError
from triqi.fock import DensityOperator, as_diag_plus_low_rank, build_space
from triqi.presets import DENSE_CHECK_POINTS, GOLDEN_POINT, GOLDEN_POINT_TRACED
from triqi.states import IDLER_VARIANTS, build_hypothesis_pair

from oracles import partial_trace_ref, rotated_dense_ref, triplet_ket_ref


@pytest.mark.parametrize("modes,cutoffs,dim", [
    (3, [2, 2, 2], 8),
    (1, [5], 5),
    (3, [2, 6, 6], 72),
])
def test_build_space_dimensions(modes, cutoffs, dim):
    space = build_space(modes, cutoffs)
    assert space.total_dim == dim
    assert space.total_dim == int(np.prod(space.cutoffs))


def test_total_dim_is_exact_above_int64():
    # 2 * (5e9)^2 = 5e19 wraps around in int64; the state command prints it
    assert build_space(3, [2, 5 * 10**9, 5 * 10**9]).total_dim == 5 * 10**19


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
    flat = spectral.StructuredPair((np.full(1600, 1 / 1600),), 1.0, 0.0, np.zeros(0, dtype=int),
                                   np.zeros(0, dtype=complex))
    rho = DensityOperator.diag_plus_low_rank(space, flat)
    with pytest.raises(DenseLimitError):
        rho.to_dense()


def test_dense_to_dense_returns_the_stored_read_only_matrix():
    space = build_space(1, [3])
    rho = DensityOperator.dense(space, np.diag([0.5, 0.3, 0.2]))
    mat = rho.to_dense()
    assert mat is rho.structure.matrix
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0


def test_index_convention_mode0_slowest():
    # the traced idler is not rotated, so the triplet keeps its Fock indices:
    # n_0 * 36 + n_1 * 6 + n_2 for cutoffs (2, 6, 6)
    sp = build_hypothesis_pair(GOLDEN_POINT_TRACED).structured
    assert sp.v_index.tolist() == [0, 36 + 6 + 1]
    assert np.array_equal(sp.v_value, triplet_ket_ref(0.1, (2, 6, 6))[sp.v_index])


def test_partial_trace_schmidt_form():
    theta = 0.31
    amps = triplet_ket_ref(theta, (2, 2, 2))
    red = partial_trace_ref(np.outer(amps, amps.conj()), (2, 2, 2), (0,))
    assert_allclose(red, np.diag([np.cos(theta) ** 2, np.sin(theta) ** 2]), atol=1e-12)


def test_partial_trace_golden_against_contraction_oracle():
    pair = build_hypothesis_pair(GOLDEN_POINT)
    red = partial_trace_ref(pair.rho1.to_dense(), (2, 6, 6), (1, 2))
    # frozen spot values from the dense contraction oracle
    assert red[0, 0].real == pytest.approx(0.13737098854939137, abs=1e-13)
    assert red[7, 7].real == pytest.approx(0.04992483036210915, abs=1e-13)
    assert np.linalg.norm(red) == pytest.approx(0.22141045764221273, abs=1e-12)


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


def test_as_diag_plus_low_rank_rejects_plain_dense():
    space = build_space(1, [3])
    rho = DensityOperator.dense(space, np.eye(3) / 3.0)
    with pytest.raises(NumericalError):
        as_diag_plus_low_rank(rho)
