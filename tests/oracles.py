"""Independent reference implementations used as oracles by the tests.

Everything here is built directly on numpy/scipy primitives and explicit
formulas, separately from the package's own evaluation paths.
"""

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def thermal_probs_ref(nbar, cutoff):
    n = np.arange(cutoff)
    p = np.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))
    return p / p.sum()


def flat_probs_ref(nbar, cutoff):
    k = int(math.floor(nbar + 0.5))
    p = np.zeros(cutoff)
    p[:k] = 1.0 / k
    return p


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
    psi = np.zeros(2 * cutoff * cutoff, dtype=complex)
    psi[0] = c
    psi[(cutoff + 1) * cutoff + 1] = -1j * s
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


def dense_eigenvectors(es):
    """The full unitary eigenvector matrix of a ``spectral.EigenSystem``,
    assembled from its ``(rows, cols, vectors)`` blocks: column ``cols[g, b]``
    holds ``vectors[g, :, b]`` on the rows ``rows[g]`` and zeros elsewhere."""
    n = len(es.eigenvalues)
    v = np.zeros((n, n), dtype=np.result_type(*(vectors for _, _, vectors in es.blocks)))
    for rows, cols, vectors in es.blocks:
        v[rows[:, :, None], cols[:, None, :]] = vectors
    return v


def reconstruct_ref(es):
    """``V diag(w) V^dag`` of a ``spectral.EigenSystem``."""
    v = dense_eigenvectors(es)
    return (v * es.eigenvalues) @ v.conj().T


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


def rotated_dense_ref(structure, cutoffs):
    """Dense ``R (scale diag(d0) + weight v v^dag) R^dag`` of a DiagPlusLowRank
    structure, with its pair's full arrays and ``R`` the full Kronecker
    product of its mode rotations (identity where None)."""
    pair = structure.pair
    d0, v = pair_full_arrays_ref(pair)
    mat = np.diag(pair.scale * d0).astype(complex) + pair.weight * np.outer(v, v.conj())
    rot = np.eye(1)
    for c, r in zip(cutoffs, structure.mode_rotations):
        rot = np.kron(rot, np.eye(c) if r is None else r)
    return rot @ mat @ rot.conj().T


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
    psi = np.zeros(cutoffs, dtype=complex)
    psi[0, 0, 0] = np.cos(params.theta)
    psi[1, 1, 1] = -1j * np.sin(params.theta)
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
