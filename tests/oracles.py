"""Independent reference implementations used as oracles by the tests.

Everything here is built directly on numpy/scipy primitives and explicit
formulas, separately from the package's own evaluation paths.
"""

import math

import numpy as np
from scipy.linalg import expm


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


class QsGrid:
    """Cached dense Q_s evaluator for fine grid scans."""

    def __init__(self, rho0, rho1, support_tol=1e-12):
        w0, v0 = np.linalg.eigh(rho0)
        w1, v1 = np.linalg.eigh(rho1)
        self.w0 = np.clip(w0, 0.0, None)
        self.w1 = np.clip(w1, 0.0, None)
        self.overlap = np.abs(v0.conj().T @ v1) ** 2
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


def trace_power_ref(d0, spectrum, s, support_tol=1e-12):
    """``Tr( diag(d0)^s * A^{1-s} )`` with one full pass per call.

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
        t = np.array([float(np.sum(np.abs(spectrum.v[g.indices]) ** 2 * pow0(d0[g.indices]))) / g.mass
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
