import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from pathlib import Path

from triqi import spectral
from triqi.errors import DenseLimitError, NumericalError
from triqi.bounds import _shared_basis, chernoff, evaluate_point, helstrom_optimum, q_s
from triqi.fock import DensityOperator, as_diag_plus_low_rank
from triqi.presets import DENSE_CHECK_POINTS, GOLDEN_POINT
from triqi.spectral import (DEFLATION_REL_GAP, StructuredPair, _kron_mass, _secular_roots, eigh,
                            rank_one_spectrum)
from triqi.states import IDLER_VARIANTS, ProtocolParams, build_hypothesis_pair, thermal_probs

from oracles import (components_ref, dense_eigenvectors, helstrom_ref, pair_arrays_ref,
                     pair_full_arrays_ref, q_flat_closed_form, qs_ref, reconstruct_ref,
                     thermal_probs_ref, trace_power_ref)

GOLDEN_DIR = Path(__file__).parent / "golden"

rng = np.random.default_rng(20240811)


def random_psd(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_eigh_sorted_examples():
    es = eigh(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(es.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    es = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_invariants():
    for dim in (5, 24):
        m = random_psd(dim)
        es = eigh(m)
        top = np.abs(m).max()
        assert np.abs(reconstruct_ref(es) - m).max() <= 1e-10 * top
        v = dense_eigenvectors(es)
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NumericalError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@st.composite
def permuted_block_matrices(draw):
    """Hermitian matrices that are block diagonal under a random permutation:
    1-6 dense blocks of sizes 1-5, real or complex, the first block possibly
    repeated so that eigenvalues are degenerate across blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    complex_entries = draw(st.booleans())
    blocks = []
    for k in sizes:
        a = rng.normal(size=(k, k))
        if complex_entries:
            a = a + 1j * rng.normal(size=(k, k))
        blocks.append(a + a.conj().T)
    if draw(st.booleans()):
        blocks.append(blocks[0])
    n = sum(len(b) for b in blocks)
    mat = np.zeros((n, n), dtype=blocks[0].dtype)
    start = 0
    for b in blocks:
        mat[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    perm = rng.permutation(n)
    return mat[np.ix_(perm, perm)]


@st.composite
def sparsity_patterns(draw):
    """Random nonzero patterns of 1-40 indices at densities up to 0.3:
    one-sided (upper triangular), symmetric, or neither."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    mat = rng.uniform(size=(n, n)) < draw(st.floats(0.0, 0.3))
    if draw(st.booleans()):
        mat = np.triu(mat)
    elif draw(st.booleans()):
        mat = mat | mat.T
    return mat


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sparsity_patterns())
@example(np.eye(6, dtype=bool))  # diagonal: one component per index
@example(np.ones((64, 64), dtype=bool))  # fully dense: one component
@example(np.eye(5, k=2, dtype=bool))  # one-sided: 0-2-4 and 1-3
@example(np.zeros((3, 3), dtype=bool))
def test_components_match_graph_search(pattern):
    n = len(pattern)
    ref = components_ref(pattern)
    # the reference numbers components in search order; _components names
    # each by its smallest index
    smallest = np.array([np.flatnonzero(ref == ref[v])[0] for v in range(n)])
    edges = [np.divmod(np.flatnonzero(pattern), n)]
    assert np.array_equal(spectral._components(n, edges), smallest)


@st.composite
def scanned_matrices(draw):
    """Square matrices of dims 0-300, across the scan's row chunks, real or
    complex, C-contiguous or not, sparse or dense, with entries drawn from
    values that test each half of a complex number: -0.0, NaN, purely real
    and purely imaginary ones.  Whole row chunks may be zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from((0, 1, 7, spectral._SCAN_ROWS - 1, spectral._SCAN_ROWS,
                              spectral._SCAN_ROWS + 1, 2 * spectral._SCAN_ROWS + 44)))
    values = np.array([0.0, -0.0, np.nan, 1.5, -2.0, 1e-300, 1j, -0.0j, 1e-300j, 2 - 3j,
                       complex(-0.0, -0.0), complex(np.nan, 0.0), complex(0.0, np.nan)])
    complex_entries = draw(st.booleans())
    if not complex_entries:
        values = values[np.isreal(values)].real
    mat = rng.choice(values, size=(n, n))
    mat[rng.uniform(size=(n, n)) >= draw(st.floats(0.0, 1.0))] = 0.0
    zero_rows = draw(st.integers(0, n))  # a zero band as long as whole chunks
    start = draw(st.integers(0, n - zero_rows))
    mat[start:start + zero_rows] = 0.0
    layout = draw(st.sampled_from(("C", "F", "transposed", "strided")))
    if layout == "F":
        mat = np.asfortranarray(mat)
    elif layout == "transposed":
        mat = np.ascontiguousarray(mat.T).T
    elif layout == "strided":
        wide = np.zeros((n, 2 * n), dtype=mat.dtype)
        wide[:, ::2] = mat
        mat = wide[:, ::2]
    return mat


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scanned_matrices())
@example(np.zeros((2 * spectral._SCAN_ROWS + 3,) * 2, dtype=complex))  # every chunk zero
@example(np.diag(np.full(spectral._SCAN_ROWS + 5, -0.0 + 1j)))
def test_nonzero_pattern_matches_flat_scan(mat):
    n = len(mat)
    expected = np.divmod(np.flatnonzero(mat != 0), max(n, 1))
    rows, cols = spectral.nonzero_pattern(mat)
    assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
    assert rows.dtype == cols.dtype == np.intp


def _joined_blocks():
    """Two 2x2 blocks joined only by a 1e-300 entry and its mirror."""
    mat = np.zeros((4, 4))
    mat[np.ix_([0, 3], [0, 3])] = [[1.0, 2.0], [2.0, -1.0]]
    mat[np.ix_([1, 2], [1, 2])] = [[0.5, 1.0], [1.0, 0.5]]
    mat[0, 2] = mat[2, 0] = 1e-300
    return mat


@settings(max_examples=150, derandomize=True, deadline=None)
@given(permuted_block_matrices())
@example(random_psd(12))  # fully dense: one component
@example(np.diag([3.0, -1.0, 2.0, 2.0, 0.0]))  # diagonal: one component per index
# the same 2x2 block twice, interleaved: degenerate eigenvalues across blocks
@example(np.kron(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2)))
@example(_joined_blocks())
def test_split_eigh_matches_full_decomposition(mat):
    n = len(mat)
    reference = np.linalg.eigvalsh(mat)
    scale = max(float(np.abs(reference).max()), 1e-300)
    es = eigh(mat)
    assert np.abs(es.eigenvalues - reference).max() <= 1e-12 * scale
    assert np.all(np.diff(es.eigenvalues) >= 0)
    v = dense_eigenvectors(es)
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
    assert np.abs(reconstruct_ref(es) - mat).max() <= 1e-12 * scale
    # the recorded split is the exact component structure, and each
    # eigenvector lives on one component and is zero elsewhere
    labels = components_ref(mat)
    for part in ([rows for rows, _, _ in es.blocks], [cols for _, cols, _ in es.blocks]):
        assert np.array_equal(np.sort(np.concatenate([p.ravel() for p in part])), np.arange(n))
    for rows, cols, vectors in es.blocks:
        assert vectors.shape == rows.shape + rows.shape[1:]
        for r, c in zip(rows, cols):
            assert set(labels[r]) == {labels[r[0]]} and np.sum(labels == labels[r[0]]) == len(r)
            assert np.all(v[np.setdiff1d(np.arange(n), r)][:, c] == 0)
    for j in range(n):
        assert len(set(labels[np.flatnonzero(v[:, j])])) == 1
    # a coarser split that holds the matrix's own, here its components joined
    # with those of a chain over the even indices, decomposes it as well and
    # records exactly that split as the rows
    chain = (np.arange(0, n - 2, 2), np.arange(2, n, 2))
    coarse = spectral.components(n, [spectral.nonzero_pattern(mat), chain])
    joined = eigh(mat, coarse)
    assert np.abs(joined.eigenvalues - reference).max() <= 1e-12 * scale
    assert np.abs(reconstruct_ref(joined) - mat).max() <= 1e-12 * scale
    assert [rows.tobytes() for rows, _, _ in joined.blocks] == [g.tobytes() for g in coarse]
    vj = dense_eigenvectors(joined)
    assert np.abs(vj.conj().T @ vj - np.eye(n)).max() <= 1e-12
    for i, j in ((0, n - 1), (n - 1, 0)) if n > 1 else ():
        skew = mat.astype(complex)
        skew[i, j] += 1e-6 * max(float(np.abs(mat).max()), 1e-300)
        with pytest.raises(NumericalError):
            eigh(skew)


def test_h0_spectrum_matches_golden_file():
    golden = np.loadtxt(GOLDEN_DIR / "h0_spectrum_golden.txt")
    pair = build_hypothesis_pair(GOLDEN_POINT)
    es = eigh(pair.rho0.to_dense())
    assert_allclose(es.eigenvalues, golden, atol=1e-13)
    # the structured representation carries the same spectrum as its diagonal
    d0, _ = pair_full_arrays_ref(as_diag_plus_low_rank(pair.rho0).structure.pair)
    assert_allclose(np.sort(d0), golden, atol=1e-13)


def test_h1_spectrum_matches_golden_file():
    golden = np.loadtxt(GOLDEN_DIR / "h1_spectrum_golden.txt")
    pair = build_hypothesis_pair(GOLDEN_POINT)
    es = eigh(pair.rho1.to_dense())
    assert_allclose(es.eigenvalues, golden, atol=1e-13)
    # the secular path reproduces the same full spectrum without materializing
    sp = pair.structured
    d0, v = pair_full_arrays_ref(sp)
    spectrum = rank_one_spectrum(d0, sp.scale, sp.weight, v)
    assert_allclose(spectrum.eigenvalues(), np.clip(golden, 0.0, None), atol=1e-12)


# ---------------------------------------------------------------------------
# rank-one secular spectra
# ---------------------------------------------------------------------------

def test_sqrt_rank_one_commuting_closed_form():
    n = 8
    eta = 0.3
    d = np.full(n, 1.0 / n)
    v = np.zeros(n, dtype=complex)
    v[2] = 1.0
    eigs = rank_one_spectrum(d, 1.0 - eta, eta, v).eigenvalues()
    expected = np.sort(np.concatenate([[(1 - eta) / n + eta], np.full(n - 1, (1 - eta) / n)]))
    assert_allclose(eigs, expected, atol=1e-14)


def test_sqrt_rank_one_eta_zero():
    d = np.array([0.1, 0.2, 0.7])
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    eigs = rank_one_spectrum(d, 1.0, 0.0, v).eigenvalues()
    assert_allclose(np.sort(np.sqrt(np.clip(eigs, 0.0, None))), np.sqrt(np.sort(d)), atol=1e-15)


def test_rank_one_thermal_cross_section_oracle():
    # base diagonal: thermal x thermal at nbar=5, cutoff 32; update vector is the
    # embedded two-component triplet state
    t = thermal_probs(5.0, 32)
    assert_allclose(t, thermal_probs_ref(5.0, 32), atol=1e-15)
    d = np.kron(t, t)
    theta, eta = 0.2, 0.01
    v = np.zeros(32 * 32, dtype=complex)
    v[0] = np.cos(theta)
    v[33] = -1j * np.sin(theta)
    spectrum = rank_one_spectrum(d, 1.0 - eta, eta, v)
    full = spectrum.eigenvalues()

    # oracle: the update lives inside the first 8x8 level block, so the exact
    # eigenvalues are the dense eigh of that block plus the untouched diagonal
    block_idx = np.array([i * 32 + j for i in range(8) for j in range(8)])
    block = (1 - eta) * np.diag(d[block_idx]).astype(complex)
    vb = v[block_idx]
    block += eta * np.outer(vb, vb.conj())
    rest = np.setdiff1d(np.arange(32 * 32), block_idx)
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(block), (1 - eta) * d[rest]]))
    assert np.abs(full - expected).max() <= 1e-14


def test_rank_one_interlacing():
    d = np.sort(rng.uniform(0.0, 1.0, size=40))
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    v /= np.linalg.norm(v)
    eta = 0.2
    spectrum = rank_one_spectrum(d, 1.0 - eta, eta, v)
    eigs = spectrum.eigenvalues()
    base = np.sort((1 - eta) * d)
    slack = 1e-12
    assert np.all(eigs[:-1] <= base[1:] + slack)
    assert np.all(eigs >= base - slack)
    assert eigs[-1] <= base[-1] + eta * 1.0 + slack


def test_rank_one_dense_sqrt_agrees_with_eigh_path():
    d = np.sort(rng.uniform(0.0, 1.0, size=24))
    d /= d.sum()
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    v[::3] = 0.0  # keep some coordinates inactive
    v /= np.linalg.norm(v)
    eta = 0.15
    spectrum = rank_one_spectrum(d, 1.0 - eta, eta, v)
    dense = (1 - eta) * np.diag(d).astype(complex) + eta * np.outer(v, v.conj())
    assert_allclose(np.sort(spectrum.eigenvalues()), np.linalg.eigvalsh(dense), atol=1e-12)


def test_rank_one_degenerate_deflation():
    # repeated diagonal entries force the deflation branch
    d = np.array([0.25, 0.25, 0.25, 0.25])
    v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    eta = 0.4
    spectrum = rank_one_spectrum(d, 1.0 - eta, eta, v)
    assert len(spectrum.groups) == 1
    dense = (1 - eta) * np.diag(d) + eta * np.outer(v, v.conj())
    assert_allclose(spectrum.eigenvalues(), np.linalg.eigvalsh(dense), atol=1e-14)


def test_secular_rejects_negative_weight():
    with pytest.raises(NumericalError):
        rank_one_spectrum(np.array([0.5, 0.5]), 1.0, -0.1,
                          np.array([1.0, 0.0], dtype=complex))


@st.composite
def secular_problems(draw):
    """``(d, v, weight)`` over the solver's domain: 1-6 distinct signed diagonal
    values within [-1, 1], relative gaps down to just above the grouping
    tolerance, update masses ``|v_i|^2`` from 1e-30 to 1 and weights from
    1e-12 to 1e3."""
    m = draw(st.integers(1, 6))
    rel_gaps = [10.0 ** draw(st.floats(math.log10(1.01 * DEFLATION_REL_GAP), math.log10(2.0 / m)))
                for _ in range(m - 1)]
    start = draw(st.floats(-1.0, 1.0 - sum(rel_gaps)))
    d = start + np.concatenate([[0.0], np.cumsum(rel_gaps)])
    masses = 10.0 ** np.array(draw(st.lists(st.floats(-30.0, 0.0), min_size=m, max_size=m)))
    phases = np.array(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=m, max_size=m)))
    weight = 10.0 ** draw(st.floats(-12.0, 3.0))
    return d, np.sqrt(masses) * np.exp(1j * phases), weight


@settings(max_examples=300, derandomize=True, deadline=None)
@given(secular_problems())
# gaps of 1.01 times the grouping tolerance, with masses that keep every coordinate
@example((np.array([-1.0, -1.0 + 1.01e-13, -1.0 + 2.02e-13, 0.5]),
          np.sqrt([0.5, 1e-3, 0.25, 1e-6]).astype(complex), 1.0))
def test_secular_solver_over_its_domain(problem):
    d, v, weight = problem
    spectrum = rank_one_spectrum(d, 1.0, weight, v)
    # the operator's size, against which the deflation test also measures
    ref = max(float(np.max(np.abs(d))), weight * float(np.sum(np.abs(v) ** 2)))
    dense = np.diag(d).astype(complex) + weight * np.outer(v, v.conj())
    assert np.abs(spectrum.eigenvalues() - np.linalg.eigvalsh(dense)).max() <= 1e-12 * ref

    values = [g.value for g in spectrum.groups]
    masses = np.array([g.mass for g in spectrum.groups])
    roots = spectrum.roots
    assert all(values[j] < roots[j] for j in range(len(roots)))
    assert all(roots[j] < values[j + 1] for j in range(len(roots) - 1))
    for gaps in spectrum.gaps:
        # 1/weight + sum_g mass_g / (value_g - root) vanishes to within the
        # rounding of its terms and of the root's offset from its nearer pole
        terms = masses / gaps
        scale = 1.0 / weight + np.abs(terms).sum() + np.abs(gaps).min() * np.sum(terms / gaps)
        assert abs(1.0 / weight + terms.sum()) <= 16 * len(gaps) * sys.float_info.epsilon * scale

    w = spectrum.root_weights
    assert np.abs(w.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-13
    assert np.abs(w.sum(axis=0) - 1.0).max(initial=0.0) <= 1e-13


def test_secular_roots_pole_edges_bracket_expansion_and_bisection():
    # a root 5e-41 right of its left pole rounds onto it: placed one ulp inside,
    # with the offset kept in the gaps
    roots, gaps, _ = _secular_roots([1.0, 2.0], [1e-40, 1.0], 1.0)
    assert roots[0] == math.nextafter(1.0, 2.0)
    assert math.isclose(gaps[0][0], -5e-41, rel_tol=1e-15)
    # a root 1e-20 left of its right pole
    roots, gaps, _ = _secular_roots([1.0, 2.0], [1.0, 1e-40], 1.0)
    assert roots[0] == math.nextafter(2.0, 1.0)
    assert math.isclose(gaps[0][1], 1e-20, rel_tol=1e-15)
    # f at deltas[-1] + weight * sum(masses) rounds below zero: the last
    # bracket is widened; the roots keep the trace and the determinant
    # of diag(deltas) + z z^T, |z|^2 = masses
    deltas, masses = [0.0, 1e-16], [0.1, 0.8]
    roots, _, _ = _secular_roots(deltas, masses, 1.0)
    assert math.isclose(roots[0] + roots[1], sum(deltas) + sum(masses), rel_tol=1e-15)
    assert math.isclose(roots[0] * roots[1], deltas[1] * masses[0], rel_tol=1e-15)
    # the model offset 2.5e-324 underflows onto the pole, so the step bisects
    roots, gaps, _ = _secular_roots([1.0, 2.0], [5e-324, 1.0], 1.0)
    assert roots[0] == math.nextafter(1.0, 2.0)
    assert gaps[0][0] == -5e-324
    with pytest.raises(NumericalError, match="did not converge"):
        _secular_roots([0.0, 1.0], [math.nan, 1.0], 1.0)


STRUCTURED_CHECK_S = (0.0, 0.25, 0.5, 1.0)


@pytest.mark.parametrize(
    "params",
    DENSE_CHECK_POINTS + (GOLDEN_POINT.with_updates(eta=0.0), GOLDEN_POINT.with_updates(eta=1.0)),
    ids=[f"point{i}" for i in range(len(DENSE_CHECK_POINTS))] + ["golden_eta0", "golden_eta1"])
def test_structured_vs_dense_q_half(params):
    pair = build_hypothesis_pair(params)
    assert pair.rho0.space.total_dim <= 1000
    sp = pair.structured
    d0, v = pair_full_arrays_ref(sp)
    converted = as_diag_plus_low_rank(pair.rho0).structure.pair
    assert np.array_equal(pair_full_arrays_ref(converted)[0], d0)
    index = np.flatnonzero(v)
    explicit = StructuredPair((d0,), sp.scale, sp.weight, index, v[index])
    m0, m1 = pair.rho0.to_dense(), pair.rho1.to_dense()
    for s in STRUCTURED_CHECK_S:
        dense = qs_ref(m0, m1, s)
        # the pair from explicit arrays and the factored pair of the build
        assert explicit.q(s) == pytest.approx(dense, abs=1e-10), s
        assert sp.q(s) == pytest.approx(dense, abs=1e-10), s
        # the detector hands back the build's own pair
        assert q_s(pair.rho0, pair.rho1, s) == sp.q(s), s


def test_structured_vs_dense_distinct_diagonals():
    # rho1's diagonal is not rho0's: no structured pair has that shape, so the
    # pair is not detected and the dense lane answers, up to the dense limit
    pair = build_hypothesis_pair(GOLDEN_POINT)
    sp, s1 = pair.structured, pair.rho1.structure
    d0, _ = pair_full_arrays_ref(sp)

    def rolled(dense_limit, shift=5):
        space = replace(pair.rho1.space, dense_limit=dense_limit)
        rho0 = DensityOperator(space, pair.rho0.structure)
        flat = StructuredPair((np.roll(d0, shift),), sp.scale, sp.weight, sp.v_index, sp.v_value)
        return rho0, DensityOperator.diag_plus_low_rank(space, flat, s1.mode_rotations)

    # rho0's own diagonal held as one flat factor is not rho0's per-mode
    # factors either: the dense lane answers, with the same numbers
    rho0, flat = rolled(pair.rho1.space.dense_limit, shift=0)
    assert _shared_basis(rho0, flat) is None
    assert np.array_equal(flat.to_dense(), pair.rho1.to_dense())
    assert q_s(rho0, flat, 0.5) == pytest.approx(sp.q(0.5), abs=1e-10)

    rho0, rho1 = rolled(pair.rho1.space.dense_limit)
    assert _shared_basis(rho0, rho1) is None
    assert _shared_basis(rho1, rho0) is None
    m0, m1 = rho0.to_dense(), rho1.to_dense()
    for s in STRUCTURED_CHECK_S:
        assert q_s(rho0, rho1, s) == pytest.approx(qs_ref(m0, m1, s), abs=1e-10), s
        assert q_s(rho1, rho0, s) == pytest.approx(qs_ref(m1, m0, s), abs=1e-10), s
    for pi0 in (0.5, 0.2):
        assert helstrom_optimum(rho0, rho1, pi0) == pytest.approx(
            helstrom_ref(m0, m1, pi0), abs=1e-10), pi0
        assert helstrom_optimum(rho1, rho0, pi0) == pytest.approx(
            helstrom_ref(m1, m0, pi0), abs=1e-10), pi0
    assert pair.rho1.space.total_dim == 72
    rho0, rho1 = rolled(71)
    for a, b in ((rho0, rho1), (rho1, rho0)):
        with pytest.raises(DenseLimitError):
            q_s(a, b, 0.5)
        with pytest.raises(DenseLimitError):
            helstrom_optimum(a, b)


def test_lookalike_of_a_built_pair_takes_the_dense_lane():
    # rho1 of equal but copied factor and rotation arrays: only the operators
    # of one build are detected, so this pair is the dense lane's, with the
    # structured lane's numbers
    pair = build_hypothesis_pair(GOLDEN_POINT)
    sp, rho0 = pair.structured, pair.rho0
    rotations = [None if r is None else r.copy() for r in rho0.structure.mode_rotations]
    copied = replace(sp, factors=tuple(f.copy() for f in sp.factors))
    rho1 = DensityOperator.diag_plus_low_rank(rho0.space, copied, rotations)
    assert _shared_basis(rho0, rho1) is None
    assert _shared_basis(rho1, rho0) is None
    for s in STRUCTURED_CHECK_S:
        assert q_s(rho0, rho1, s) == pytest.approx(sp.q(s), abs=1e-10), s
        assert q_s(rho1, rho0, 1.0 - s) == pytest.approx(sp.q(s), abs=1e-10), s
    report = evaluate_point(GOLDEN_POINT, pair=pair)
    result = chernoff(rho0, rho1)
    assert result.q_star == pytest.approx(report.q_star, abs=1e-10)
    assert result.exponent == pytest.approx(report.chernoff_exponent, abs=1e-10)
    for pi0 in (0.5, 0.2):
        assert helstrom_optimum(rho0, rho1, pi0) == pytest.approx(sp.helstrom(pi0), abs=1e-10)
        assert helstrom_optimum(rho1, rho0, 1.0 - pi0) == \
            pytest.approx(sp.helstrom(pi0), abs=1e-10)


@pytest.mark.parametrize("idler", IDLER_VARIANTS)
@pytest.mark.parametrize("nbar", (20.0, 50.0))
def test_factored_pair_matches_kron_oracle(nbar, idler):
    # dims 0.29M and 1.7M, beyond the dense lane
    params = ProtocolParams(theta=0.01, eta=0.01, nbar2=nbar, nbar3=nbar, idler=idler)
    sp = build_hypothesis_pair(params).structured
    d0, v = pair_arrays_ref(params)
    assert sp.dim == len(d0) > 250_000
    assert sp._d0max == d0.max()
    active = np.flatnonzero(v)
    assert np.array_equal(sp.v_index, active)
    assert_allclose(sp.v_value, v[active], rtol=1e-14, atol=0)
    spectrum = rank_one_spectrum(d0, sp.scale, sp.weight, v)
    lam_max = max(spectrum.roots.max(), (sp.scale * d0).max())
    supported = (d0 > 1e-12 * d0.max()) & (sp.scale * d0 > 1e-12 * lam_max)
    supported[active] = False
    assert sp._inactive_mass == pytest.approx(d0[supported].sum(), rel=1e-14, abs=0)
    for s in np.linspace(0.0, 1.0, 11):
        s = float(s)
        assert sp.q(s) == pytest.approx(trace_power_ref(d0, v, spectrum, s), rel=1e-14, abs=0), s


@pytest.mark.parametrize("idler", IDLER_VARIANTS)
@pytest.mark.parametrize("nbar", (200.0, 2000.0))
def test_flat_pair_matches_closed_form(nbar, idler):
    # dims 80k and 8M: only the closed form reaches them besides the structured lane
    for theta, eta in ((0.01, 0.01), (0.3, 0.2)):
        params = ProtocolParams(theta=theta, eta=eta, nbar2=nbar, nbar3=nbar,
                                background="flat", idler=idler)
        sp = build_hypothesis_pair(params).structured
        for s in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            expected = q_flat_closed_form(theta, eta, int(nbar), idler, s)
            assert sp.q(s) == pytest.approx(expected, abs=1e-10), (theta, eta, s)


def test_trace_power_grid_row_at_one_half_takes_the_float_path():
    # a float exponent 0.5 takes sqrt and an array exponent takes pow; on these
    # terms the two round apart, so only the float path keeps the grid exact
    c, a, b = np.random.default_rng(5).uniform(0.01, 1.0, (3, 64))
    grid = np.array([0.25, 0.5, 0.75])
    col = grid[:, None]
    by_pow = np.add.reduce(c * a ** col * b ** (1.0 - col), axis=1)
    by_sqrt = float(np.add.reduce(c * a ** 0.5 * b ** 0.5))
    assert by_pow[1] != by_sqrt
    q = spectral.diag_rank_one_trace_power((c, a, b), grid)
    assert q[1] == by_sqrt == spectral.diag_rank_one_trace_power((c, a, b), 0.5)
    assert q.tolist() == [spectral.diag_rank_one_trace_power((c, a, b), float(s)) for s in grid]
    assert q[[0, 2]].tolist() == by_pow[[0, 2]].tolist()


def test_kron_mass_keeps_the_exact_support():
    # comparable entries, so one entry wrongly in or out of the support moves
    # the sum by about 1/105 of itself; thresholds sit on entries and one ulp
    # to either side of them
    factors = tuple(rng.uniform(0.5, 1.0, n) for n in (3, 5, 7))
    full = np.kron(np.kron(factors[0], factors[1]), factors[2])
    for t in np.sort(full)[::4]:
        for t0 in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            for scale in (1.0, 0.3):
                # the second test binds when t1 is scale * t0 itself
                for t1 in (0.0, scale * t0):
                    expected = full[(full > t0) & (scale * full > t1)].sum()
                    assert _kron_mass(factors, t0, scale, t1) == \
                        pytest.approx(expected, rel=1e-14, abs=0), (t0, scale, t1)
    assert _kron_mass(factors, 0.0, 0.0, 1e-300) == 0.0
