"""Independent reference implementations used as oracles by the tests.

Everything here is built directly on numpy/scipy primitives and explicit
formulas, separately from the package's own evaluation paths.
"""

import math
from functools import lru_cache, reduce

import numpy as np
from mpmath import mp
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def thermal_probs_ref(nbar, cutoff):
    n = np.arange(cutoff)
    p = np.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))
    return p / p.sum()


def flat_probs_ref(nbar, cutoff):
    k = max(int(math.floor(nbar + 0.5)), 1)
    p = np.zeros(cutoff)
    p[:k] = 1.0 / k
    return p


def triplet_ket_ref(theta, cutoffs):
    """Dense ket of ``cos(theta)|000> - i sin(theta)|111>`` over the Fock basis
    of three modes of ``cutoffs`` (row-major, mode 0 slowest)."""
    psi = np.zeros(cutoffs, dtype=complex)
    psi[0, 0, 0] = np.cos(theta)
    psi[1, 1, 1] = -1j * np.sin(theta)
    return psi.reshape(-1)


def pair_matrices_ref(theta, eta, nbar, cutoff, idler="pure", background="thermal"):
    """Explicit dense hypothesis pair: kron/outer assembly from the formulas."""
    c, s = np.cos(theta), np.sin(theta)
    if background == "thermal":
        b = thermal_probs_ref(nbar, cutoff)
    else:
        b = flat_probs_ref(nbar, cutoff)
    if idler == "pure":
        iv = np.array([c, -1j * s])
        proj = np.outer(iv, iv.conj())
    else:
        proj = np.diag([c ** 2, s ** 2]).astype(complex)
    rho0 = np.kron(proj, np.kron(np.diag(b), np.diag(b))).astype(complex)
    psi = triplet_ket_ref(theta, (2, cutoff, cutoff))
    rho1 = (1 - eta) * rho0 + eta * np.outer(psi, psi.conj())
    return rho0, rho1, psi


def mpow_ref(mat, s, support_tol=1e-12):
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    top = max(w.max(), 1e-300)
    f = np.zeros_like(w)
    sup = w > support_tol * top
    f[sup] = 1.0 if s == 0 else w[sup] ** s
    return (v * f) @ v.conj().T


def qs_ref(rho0, rho1, s):
    return float(np.real(np.trace(mpow_ref(rho0, s) @ mpow_ref(rho1, 1 - s))))


def helstrom_ref(rho0, rho1, pi0):
    """(1/2)(1 - ||pi1 rho1 - pi0 rho0||_1) from the dense eigenvalues."""
    diff = (1.0 - pi0) * rho1 - pi0 * rho0
    return 0.5 * (1.0 - float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)))))


def povm_error_ref(rho0, rho1, e0, e1, pi0):
    """Two-outcome POVM error pi0 Tr(E1 rho0) + pi1 Tr(E0 rho1) on dense matrices."""
    return float(np.real(pi0 * np.trace(e1 @ rho0) + (1.0 - pi0) * np.trace(e0 @ rho1)))


def components_ref(mat):
    """Connected component label of each index of the graph of the nonzero
    entries of ``mat``, from scipy's graph search."""
    return connected_components(csr_matrix(np.asarray(mat) != 0), directed=False)[1]


def block_columns(groups):
    """Per ``(m, k)`` array of a split, the ``(m, k)`` columns that
    :func:`dense_eigensystem` gives its eigenvectors: the blocks' columns in
    order, numbered on from the previous array's."""
    offsets = np.cumsum([0] + [rows.size for rows in groups])
    return [start + np.arange(rows.size).reshape(rows.shape)
            for start, rows in zip(offsets, groups)]


def dense_eigensystem(groups, es):
    """The eigenvalues and the full unitary eigenvector matrix of the per-block
    ``(w, V)`` of ``spectral.eigh`` on the split ``groups``: for each array
    ``rows`` of the split and its :func:`block_columns` ``cols``, column
    ``cols[g, b]`` holds ``V[g, :, b]`` on the rows ``rows[g]`` and zeros
    elsewhere, with eigenvalue ``w[g, b]``."""
    n = sum(rows.size for rows in groups)
    w = np.zeros(n)
    v = np.zeros((n, n), dtype=np.result_type(*(vectors for _, vectors in es)))
    for rows, cols, (values, vectors) in zip(groups, block_columns(groups), es, strict=True):
        w[cols] = values
        v[rows[:, :, None], cols[:, None, :]] = vectors
    return w, v


def full_spectrum(es):
    """The ascending spectrum of the per-block ``(w, V)`` of ``spectral.eigh``."""
    return np.sort(np.concatenate([w.ravel() for w, _ in es]))


def reconstruct_ref(groups, es):
    """``V diag(w) V^dag`` of the per-block ``(w, V)`` of ``spectral.eigh`` on
    the split ``groups``."""
    w, v = dense_eigensystem(groups, es)
    return (v * w) @ v.conj().T


def dense_overlap_ref(v0, v1):
    """Squared eigenvector overlap table ``|V0^dag V1|^2`` as one dense product."""
    return np.abs(v0.conj().T @ v1) ** 2


class QsGrid:
    """Cached dense Q_s evaluator for fine grid scans."""

    def __init__(self, rho0, rho1, support_tol=1e-12):
        w0, v0 = np.linalg.eigh(rho0)
        w1, v1 = np.linalg.eigh(rho1)
        self.w0 = np.clip(w0, 0.0, None)
        self.w1 = np.clip(w1, 0.0, None)
        self.overlap = dense_overlap_ref(v0, v1)
        self.tol = support_tol

    def _pow(self, w, p):
        sup = w > self.tol * max(w.max(), 1e-300)
        out = np.zeros_like(w)
        out[sup] = 1.0 if p == 0 else w[sup] ** p
        return out

    def q(self, s):
        return float(self._pow(self.w0, s) @ self.overlap @ self._pow(self.w1, 1 - s))


def chain_amplitudes_ref(theta, cutoff):
    """Propagator column via scipy expm on the explicit tridiagonal coupling."""
    h = np.zeros((cutoff, cutoff))
    for n in range(cutoff - 1):
        h[n, n + 1] = h[n + 1, n] = (n + 1) ** 1.5
    return expm(-1j * theta * h)[:, 0]


def partial_trace_ref(mat, dims, keep):
    """Index-contraction partial trace on a dense matrix."""
    keep = tuple(sorted(keep))
    n = len(dims)
    tensor = mat.reshape(tuple(dims) + tuple(dims))
    traced = [m for m in range(n) if m not in keep]
    left = n
    for m in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + left)
        left -= 1
    d = int(np.prod([dims[m] for m in keep]))
    return tensor.reshape(d, d)


def pair_full_arrays_ref(pair):
    """``d0`` and ``v`` of a StructuredPair at the full dimension: the kron of
    its factors and its sparse entries scattered into a zero vector."""
    d0 = reduce(np.kron, pair.factors)
    v = np.zeros(len(d0), dtype=complex)
    v[pair.v_index] = pair.v_value
    return d0, v


def scale_weight_ref(structure):
    """``(scale, weight)`` of a DiagPlusLowRank hypothesis: ``(1, 0)`` for
    rho0 = ``diag(d0)``, its pair's own for rho1."""
    pair = structure.pair
    return (pair.scale, pair.weight) if structure.hypothesis else (1.0, 0.0)


def rotated_dense_ref(structure, cutoffs):
    """Dense ``R (scale diag(d0) + weight v v^dag) R^dag`` of a DiagPlusLowRank
    hypothesis, with its pair's full arrays, the scale and weight of
    :func:`scale_weight_ref` and ``R`` the full Kronecker product of its idler
    rotation on mode 0 and the identity on the other modes."""
    scale, weight = scale_weight_ref(structure)
    d0, v = pair_full_arrays_ref(structure.pair)
    mat = np.diag(scale * d0).astype(complex) + weight * np.outer(v, v.conj())
    rot = np.kron(structure.idler_rotation, np.eye(math.prod(cutoffs[1:])))
    return rot @ mat @ rot.conj().T


def assert_density_invariants(rho):
    """Assert that a DiagPlusLowRank hypothesis is a density operator.

    Unit trace within 1e-12, from its pair's factors and its scale and
    rank-one weight (:func:`scale_weight_ref`); every factor times the scale at
    least ``-1e-10`` times its largest entry and a nonnegative rank-one weight;
    and, up to the dense limit, the dense matrix Hermitian within 1e-12 and
    PSD within 1e-10 of its largest eigenvalue.
    """
    pair = rho.structure.pair
    scale, weight = scale_weight_ref(rho.structure)
    trace = scale * math.prod(float(f.sum()) for f in pair.factors) \
        + weight * float(np.sum(np.abs(pair.v_value) ** 2))
    assert abs(trace - 1.0) <= 1e-12, f"trace {trace!r}"
    for f in pair.factors:
        diag = scale * f
        top = max(float(diag.max()), 0.0)
        assert float(diag.min()) >= -1e-10 * max(top, 1e-300), f"factor entry {diag.min()!r}"
    assert weight >= 0, f"rank-one weight {weight!r}"
    if rho.space.total_dim <= rho.space.dense_limit:
        mat = rho.to_dense()
        herm = float(np.abs(mat - mat.conj().T).max())
        assert herm <= 1e-12, f"Hermiticity violation {herm!r}"
        eigs = np.linalg.eigvalsh(mat)
        top = max(float(eigs.max()), 0.0)
        assert eigs.min() >= -1e-10 * max(top, 1e-300), f"eigenvalue {eigs.min()!r}"


def rank_one_eigenvalues(spectrum):
    """The full ascending spectrum of a ``spectral.RankOneSpectrum``: its
    secular roots, each group's value once per deflated direction and the
    scaled diagonal off the groups."""
    parts = [spectrum.roots]
    for g in spectrum.groups:
        parts.append(np.full(len(g.indices) - 1, g.value))
    parts.append(spectrum.scale * spectrum.d[spectrum.inactive])
    return np.sort(np.concatenate(parts))


def trace_power_ref(d0, v, spectrum, s, support_tol=1e-12):
    """``Tr( diag(d0)^s * A^{1-s} )`` with one full pass per call, for the
    spectrum of ``A = scale * diag(d) + weight * v v^dag`` over every coordinate.

    The per-call formula of the structured lane before its inactive-coordinate
    sum moved to a once-per-pair reduction: secular groups plus an explicit
    pass over every inactive coordinate, both powers under the ``0^0 = 0``
    support convention.
    """
    d0 = np.asarray(d0, dtype=float)
    d0max = max(float(d0.max(initial=0.0)), 1e-300)

    def pow0(x):
        x = np.asarray(x, dtype=float)
        sup = x > support_tol * d0max
        out = np.zeros_like(x)
        out[sup] = 1.0 if s == 0 else x[sup] ** s
        return out

    lam_all_max = max(float(np.max(spectrum.roots, initial=0.0)),
                      float(np.max(spectrum.scale * spectrum.d, initial=0.0)), 1e-300)

    def pow1(x):
        x = np.asarray(x, dtype=float)
        sup = x > support_tol * lam_all_max
        out = np.zeros_like(x)
        out[sup] = 1.0 if s == 1 else x[sup] ** (1.0 - s)
        return out

    total = 0.0
    groups = spectrum.groups
    if groups:
        t = np.array([float(np.sum(np.abs(v[g.indices]) ** 2 * pow0(d0[g.indices]))) / g.mass
                      for g in groups])
        lam_pow = pow1(spectrum.roots)
        total += float(np.sum(lam_pow[:, None] * spectrum.root_weights * t[None, :]))
        for g, tg in zip(groups, t):
            s_grp = float(np.sum(pow0(d0[g.indices])))
            total += pow1(np.array([g.value]))[0] * (s_grp - tg)
    inactive = np.ones(len(d0), dtype=bool)
    for g in groups:
        inactive[g.indices] = False
    total += float(np.sum(pow0(d0[inactive]) * pow1(spectrum.scale * spectrum.d[inactive])))
    return total


def _idler_eigensystem_ref(theta, cutoff, idler):
    """Eigenvalues and eigenvectors of the idler factor of rho0."""
    c, s = np.cos(theta), np.sin(theta)
    if idler == "paper_pure":
        iv = np.zeros(cutoff, dtype=complex)
        iv[0], iv[1] = c, -1j * s
        return np.linalg.eigh(np.outer(iv, iv.conj()))
    probs = np.zeros(cutoff)
    probs[0], probs[1] = c ** 2, s ** 2
    return probs, np.eye(cutoff)


def pair_arrays_ref(params):
    """``d0`` (equal to ``d1``) and the triplet ``v`` of a hypothesis pair in
    rho0's eigenbasis, at the full dimension.

    The construction the structured lane used before it held marginals: the
    kron of the per-mode eigenvalues, and the triplet rotated into the idler
    eigenbasis by a tensordot over the whole space.
    """
    cutoffs = params.resolved_cutoffs()
    e, rot = _idler_eigensystem_ref(params.theta, cutoffs[0], params.idler)
    probs = thermal_probs_ref if params.background == "thermal" else flat_probs_ref
    d0 = np.kron(np.kron(e, probs(params.nbar2, cutoffs[1])), probs(params.nbar3, cutoffs[2]))
    psi = triplet_ket_ref(params.theta, cutoffs).reshape(cutoffs)
    v = np.tensordot(rot.conj().T, psi, axes=([1], [0])).reshape(-1)
    return d0, v


def _support_pow(x, p, ref, support_tol=1e-12):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    sup = x > support_tol * ref
    out[sup] = 1.0 if p == 0 else x[sup] ** p
    return out


def support_powers_ref(w, p, support_tol=1e-12):
    """``w^p`` for the eigenvalues ``w`` above ``support_tol`` times their
    largest, zero for the rest, so ``0^0 = 0`` off the support."""
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    return _support_pow(w, p, max(w.max(), 1e-300), support_tol)


def q_flat_closed_form(theta, eta, k, idler, s):
    """``Q_s`` of the flat-background pair with ``k`` levels per signal mode.

    In rho0's eigenbasis the triplet lives in a 2-dimensional block: for the
    pure idler ``|i> (x) a`` and ``|i_perp> (x) b`` with ``|a|^2 = cos^4 +
    sin^4`` and ``|b|^2 = sin^2(2 theta) / 2``, where rho0 is
    ``diag(1, 0) / k^2``; for the traced idler ``|0,00>`` and ``|1,11>``,
    where rho0 is ``diag(cos^2, sin^2) / k^2``.  rho1 is
    ``(1 - eta) rho0 + eta |Psi><Psi|`` on the block, whose 2x2 eigenproblem
    is solved directly, and ``(1 - eta) rho0`` on the ``k^2 - 1`` other
    coordinates of each idler level.
    """
    c, sn = math.cos(theta), math.sin(theta)
    if idler == "paper_pure":
        p = np.array([1.0, 0.0]) / k ** 2
        u = np.array([math.sqrt(c ** 4 + sn ** 4), math.sqrt(2.0) * abs(c * sn)])
    else:
        p = np.array([c ** 2, sn ** 2]) / k ** 2
        u = np.array([abs(c), abs(sn)])
    lam, vecs = np.linalg.eigh((1.0 - eta) * np.diag(p) + eta * np.outer(u, u))
    ref0 = p.max()
    ref1 = max(lam.max(), (1.0 - eta) * p.max())
    p0 = _support_pow(p, s, ref0)
    block = float(_support_pow(lam, 1.0 - s, ref1) @ (np.abs(vecs) ** 2).T @ p0)
    bulk = float(np.sum(p0 * _support_pow((1.0 - eta) * p, 1.0 - s, ref1)))
    return block + (k ** 2 - 1) * bulk


@lru_cache(maxsize=64)
def _block_reference(params):
    """Both hypotheses on the block span{|m,n,n>: m, n in {0, 1}} to 40
    digits, the mass of rho0 off the block, and eta."""
    _, c1, c2 = params.resolved_cutoffs()
    probs = thermal_probs_ref if params.background == "thermal" else flat_probs_ref
    b2, b3 = probs(params.nbar2, c1), probs(params.nbar3, c2)
    with mp.workdps(40):
        c, sn = mp.cos(params.theta), mp.sin(params.theta)
        if params.idler == "paper_pure":
            ket = (c, mp.mpc(0, -sn))
            idler = [[ket[m] * mp.conj(ket[k]) for k in range(2)] for m in range(2)]
        else:
            idler = [[c ** 2, 0], [0, sn ** 2]]
        # block coordinate 2 m + n is |m, n, n>; the signal modes hold b2[n] b3[n] there
        rho0 = mp.matrix(4, 4)
        for m in range(2):
            for k in range(2):
                for n in range(2):
                    rho0[2 * m + n, 2 * k + n] = idler[m][k] * mp.mpf(b2[n]) * mp.mpf(b3[n])
        psi = mp.matrix([c, 0, 0, mp.mpc(0, -sn)])
        eta = mp.mpf(params.eta)
        rho1 = (1 - eta) * rho0 + eta * psi * psi.H
        mass = mp.mpf(math.fsum(b2)) * mp.mpf(math.fsum(b3)) * (idler[0][0] + idler[1][1]) \
            - sum(rho0[i, i] for i in range(4))
        return rho0, rho1, mp.re(mass), eta


@lru_cache(maxsize=64)
def _q_reference_terms(params):
    """The 40-digit eigensystems of both hypotheses on the block of
    :func:`_block_reference`, and the mass of rho0 off the block."""
    rho0, rho1, mass, eta = _block_reference(params)
    with mp.workdps(40):
        e0, u0 = mp.eighe(rho0)
        e1, u1 = mp.eighe(rho1)
        overlap = [[abs((u0[:, i].H * u1[:, j])[0]) ** 2 for j in range(4)] for i in range(4)]
        return e0, e1, overlap, mass, 1 - eta


def q_reference(params, s):
    """``Q_s`` of the hypothesis pair of ``params`` to 40 digits, with no
    array of the full dimension and none of the lanes' support thresholds.

    ``rho1 - (1 - eta) rho0`` lives on the 4 coordinates ``|m,n,n>``, m and n
    in {0, 1}, which rho0 leaves invariant: the block is an ``mp.eighe``
    eigenproblem, with eigenvalues below 1e-30 taken as zero (``0^0 = 0``).
    Off the block rho1 is ``(1 - eta) rho0``, which adds ``M (1 - eta)^(1-s)``
    for the mass ``M`` of rho0 there.
    """
    e0, e1, overlap, mass, rest = _q_reference_terms(params)
    with mp.workdps(40):
        s = mp.mpf(s)

        def power(x, p):
            x = mp.re(x)
            return mp.zero if x < mp.mpf("1e-30") else mp.one if p == 0 else x ** p

        block = sum(power(e0[i], s) * power(e1[j], 1 - s) * overlap[i][j]
                    for i in range(4) for j in range(4))
        return float(block + mass * power(rest, 1 - s))


@lru_cache(maxsize=64)
def _slope_terms(params):
    """The terms of :func:`q_reference` on both supports as ``(c b, ln(a/b))``
    to 40 digits, so that ``Q_s = sum c b exp(s ln(a/b))``."""
    e0, e1, overlap, mass, rest = _q_reference_terms(params)
    with mp.workdps(40):
        terms = [(overlap[i][j], mp.re(e0[i]), mp.re(e1[j])) for i in range(4) for j in range(4)]
        terms.append((mass, mp.one, rest))
        return [(c * b, mp.log(a / b)) for c, a, b in terms if min(a, b) >= mp.mpf("1e-30")]


def _slopes_reference(params, s):
    """``dQ/ds`` and ``d2Q/ds2`` of :func:`q_reference` at ``s`` to 40 digits."""
    with mp.workdps(40):
        s = mp.mpf(s)
        weighted = [(cb * r * mp.exp(s * r), r) for cb, r in _slope_terms(params)]
        return sum(w for w, _ in weighted), sum(w * r for w, r in weighted)


def dq_reference(params, s):
    """``dQ/ds = sum c a^s b^{1-s} ln(a/b)`` of :func:`q_reference` at ``s``."""
    return float(_slopes_reference(params, s)[0])


def d2q_reference(params, s):
    """``d2Q/ds2 = sum c a^s b^{1-s} ln(a/b)^2`` of :func:`q_reference` at ``s``."""
    return float(_slopes_reference(params, s)[1])


def s_star_reference(params):
    """The ``s`` in [0, 1] minimizing :func:`q_reference`: 120 bisection steps
    on its 40-digit derivative (see :func:`dq_reference`), which rises with
    ``s``; 0 if it is ``>= 0`` at 0 and 1 if it is ``<= 0`` at 1."""
    with mp.workdps(40):
        def slope(s):
            return _slopes_reference(params, s)[0]

        if slope(0) >= 0:
            return 0.0
        if slope(1) <= 0:
            return 1.0
        lo, hi = mp.zero, mp.one
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


def exponent_reference(params):
    """The Chernoff exponent ``-log min_s Q_s``: :func:`q_reference` at the
    40-digit minimizer :func:`s_star_reference`."""
    return -math.log(q_reference(params, s_star_reference(params)))


def helstrom_reference(params, pi0=0.5):
    """The Helstrom error ``(1/2)(1 - ||pi1 rho1 - pi0 rho0||_1)`` of the pair
    of ``params`` to 40 digits, with no array of the full dimension.

    On the block of :func:`q_reference` the trace norm is the sum of the
    block difference's ``|eigenvalues|``.  Off it ``rho1 = (1 - eta) rho0``,
    so the difference is ``(pi1 (1 - eta) - pi0) rho0`` there, whose trace norm
    is ``|pi1 (1 - eta) - pi0| M`` for the mass ``M`` of rho0 off the block.
    """
    rho0, rho1, mass, eta = _block_reference(params)
    with mp.workdps(40):
        pi0 = mp.mpf(pi0)
        pi1 = 1 - pi0
        eigs = mp.eighe(pi1 * rho1 - pi0 * rho0, eigvals_only=True)
        norm = sum(abs(mp.re(e)) for e in eigs) + abs(pi1 * (1 - eta) - pi0) * mass
        return float((1 - norm) / 2)


def _levels_reference(nbar, cutoff, background, count=None):
    """The first ``count`` (by default all ``cutoff``) levels of a truncated,
    renormalized background mode, in mpmath: thermal
    ``(1 - q) q^n / (1 - q^cutoff)`` with ``q = nbar/(nbar + 1)``, flat ``1/k``
    on its ``k = round(nbar)`` levels."""
    levels = range(cutoff if count is None else min(count, cutoff))
    if background == "flat":
        k = max(int(math.floor(nbar + 0.5)), 1)
        return [mp.one / k if n < k else mp.zero for n in levels]
    q = mp.mpf(nbar) / (mp.mpf(nbar) + 1)
    return [(1 - q) * q ** n / (1 - q ** cutoff) for n in levels]


def trace_term(signed, name):
    """The line ``name`` of a ``overlap_audit.SignedTrace``."""
    for t in signed.terms:
        if t.name == name:
            return t
    raise KeyError(name)


def papersign_reference(params):
    """The audit's signed-root value ``1 - sqrt(eta) (cos^4 theta
    sqrt(b2[0] b3[0]) + sin^4 theta sqrt(b2[1] b3[1]))`` in closed form, with
    levels 0 and 1 of :func:`_levels_reference` (40 digits)."""
    _, c1, c2 = params.resolved_cutoffs()
    with mp.workdps(40):
        b2 = _levels_reference(params.nbar2, c1, params.background, 2)
        b3 = _levels_reference(params.nbar3, c2, params.background, 2)
        c, sn = mp.cos(params.theta), mp.sin(params.theta)
        gamma = c ** 4 * mp.sqrt(b2[0] * b3[0]) + sn ** 4 * mp.sqrt(b2[1] * b3[1])
        return float(1 - mp.sqrt(params.eta) * gamma)


@lru_cache(maxsize=8)
def spectra_reference(params):
    """The ascending spectra of both hypotheses of ``params``, in mpmath,
    rounded to floats.

    rho0 is the idler's state, eigenvalues {0, 1} for the pure idler and
    {cos^2, sin^2} for the traced one, times the two background marginals of
    :func:`_levels_reference`: its spectrum is every product of the three.
    Off the block of :func:`_block_reference`, span{|m,n,n>: m, n in {0, 1}},
    rho1 is ``(1 - eta) rho0``, so it has ``1 - eta`` times those products
    there, and on the block the ``mp.eighe`` eigenvalues of the block's rho1.
    """
    _, c1, c2 = params.resolved_cutoffs()
    with mp.workdps(40):
        b2 = _levels_reference(params.nbar2, c1, params.background)
        b3 = _levels_reference(params.nbar3, c2, params.background)
        idler = (0, 1) if params.idler == "paper_pure" \
            else (mp.cos(params.theta) ** 2, mp.sin(params.theta) ** 2)
        # the block is n2 = n3 < 2, for both idler eigenvalues
        products = [(i * b2[n2] * b3[n3], n2 == n3 < 2)
                    for i in idler for n2 in range(c1) for n3 in range(c2)]
        _, rho1, _, eta = _block_reference(params)
        h0 = [value for value, _ in products]
        h1 = [(1 - eta) * value for value, on_block in products if not on_block]
        h1 += [mp.re(e) for e in mp.eighe(rho1, eigvals_only=True)]
        return tuple(sorted(float(v) for v in h0)), tuple(sorted(float(v) for v in h1))
