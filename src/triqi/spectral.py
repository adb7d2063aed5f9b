"""Hermitian matrix-function engine.

Dense path: eigendecomposition plus eigenvalue maps with a support convention
(``0^0 = 0``, powers restricted to the support).  Structured path: spectra of
``scale * diag(d) + weight * v v^dag`` through the rank-one secular equation
with deflation, which covers the mixed hypothesis states without ever
materializing them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError

DEFAULT_SUPPORT_TOL = 1e-12
DEFLATION_REL_GAP = 1e-13
EIGH_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the matching unitary column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(matrix: np.ndarray, hermitian_tol: float = EIGH_HERMITIAN_TOL,
         dense_limit: int | None = None) -> EigenSystem:
    """Hermitian eigendecomposition with an input symmetry check."""
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dense_limit is not None and mat.shape[0] > dense_limit:
        raise NumericalError(f"dimension {mat.shape[0]} exceeds dense limit {dense_limit}")
    dev = np.max(np.abs(mat - mat.conj().T))
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    if dev > hermitian_tol * scale:
        raise NumericalError(f"matrix deviates from Hermitian by {dev} (tol {hermitian_tol * scale})")
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    return EigenSystem(w, v)


def support_powers(eigenvalues: np.ndarray, s: float,
                   support_tol: float = DEFAULT_SUPPORT_TOL) -> np.ndarray:
    """Eigenvalue map lambda -> lambda^s with 0^0 = 0 on the truncated support.

    Values below ``support_tol * max`` count as zero; ``s = 0`` therefore
    yields the support indicator.
    """
    w = np.asarray(eigenvalues, dtype=float)
    top = float(np.max(w, initial=0.0))
    if float(np.min(w, initial=0.0)) < -1e-10 * max(top, 1e-300):
        raise NumericalError(f"negative eigenvalue {w.min()} beyond PSD tolerance")
    sup = w > support_tol * max(top, 1e-300)
    out = np.zeros_like(w)
    if s == 0:
        out[sup] = 1.0
    else:
        out[sup] = w[sup] ** s
    return out


def matrix_power(rho, s: float, support_tol: float = DEFAULT_SUPPORT_TOL) -> np.ndarray:
    """Fractional power of a PSD operator via functional calculus.

    Accepts a dense matrix or anything with ``to_dense()``.  ``s`` must lie in
    [0, 1]; ``s = 0`` returns the support projector.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"power s={s} outside [0, 1]")
    mat = rho.to_dense() if hasattr(rho, "to_dense") else np.asarray(rho)
    es = eigh(mat)
    f = support_powers(es.eigenvalues, s, support_tol)
    return (es.eigenvectors * f) @ es.eigenvectors.conj().T


def trace_product(a: np.ndarray, b: np.ndarray, imag_tol: float = 1e-10) -> float:
    """Real part of Tr(AB) for Hermitian A, B; warns on imaginary residue.

    ``imag_tol`` is relative to ``sum |a_ij b_ji|``, the scale of the rounding
    error of the summed trace, not to ``|Tr(AB)|``: a trace-orthogonal
    Hermitian pair has ``|Tr(AB)|`` at the rounding level itself.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    terms = a * b.T
    t = complex(np.sum(terms))
    scale = float(np.sum(np.abs(terms)))
    if abs(t.imag) > imag_tol * scale:
        warnings.warn(f"trace product has imaginary residue {t.imag}", stacklevel=2)
    return float(t.real)


# ---------------------------------------------------------------------------
# rank-one updated diagonal spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneGroup:
    """Active coordinates sharing one (scaled) diagonal value.

    ``mass`` is the squared norm of the update vector restricted to the group;
    the group contributes a single carrier direction to the secular problem,
    the remaining ``len(indices) - 1`` directions stay at ``value``.
    """

    value: float
    indices: np.ndarray
    mass: float


@dataclass(frozen=True)
class RankOneSpectrum:
    """Spectral data of ``scale * diag(d) + weight * v v^dag``.

    ``roots`` holds the secular eigenvalues (one per group, ascending with the
    group values); all other eigenvalues equal the scaled diagonal.
    """

    d: np.ndarray
    scale: float
    weight: float
    v: np.ndarray
    groups: tuple[RankOneGroup, ...]
    roots: np.ndarray

    @cached_property
    def _active_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.d), dtype=bool)
        for g in self.groups:
            mask[g.indices] = True
        return mask

    @cached_property
    def root_weights(self) -> np.ndarray:
        """|q_j[g]|^2 for secular root j on group carrier g, shape (m, m)."""
        m = len(self.groups)
        if m == 0:
            return np.zeros((0, 0))
        deltas = np.array([g.value for g in self.groups])
        masses = np.array([g.mass for g in self.groups])
        out = np.empty((m, m))
        for j, lam in enumerate(self.roots):
            q2 = masses / (deltas - lam) ** 2
            out[j] = q2 / q2.sum()
        return out

    def eigenvalues(self) -> np.ndarray:
        """Full spectrum, ascending."""
        parts = [self.roots]
        for g in self.groups:
            if len(g.indices) > 1:
                parts.append(np.full(len(g.indices) - 1, g.value))
        inactive = ~self._active_mask
        parts.append(self.scale * self.d[inactive])
        return np.sort(np.concatenate(parts))

    def trace_abs(self) -> float:
        """Sum of |eigenvalue| over the full spectrum (trace norm)."""
        total = float(np.sum(np.abs(self.roots)))
        for g in self.groups:
            total += abs(g.value) * (len(g.indices) - 1)
        total += float(np.sum(np.abs(self.scale * self.d[~self._active_mask])))
        return total


def rank_one_spectrum(d, scale: float, weight: float, v,
                      deflation_rel: float = DEFLATION_REL_GAP) -> RankOneSpectrum:
    """Eigen data of ``scale * diag(d) + weight * v v^dag`` for weight >= 0.

    Coordinates where ``v`` vanishes keep their diagonal values; active
    coordinates are grouped by (nearly) equal scaled diagonal value (relative
    gap below ``deflation_rel``), each group carrying one secular direction.
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=complex)
    if d.shape != v.shape:
        raise ValueError(f"diagonal and vector shapes differ: {d.shape} vs {v.shape}")
    if weight < 0:
        raise NumericalError("rank-one update weight must be nonnegative")

    av2 = np.abs(v) ** 2
    active = np.nonzero(av2 > 0.0)[0]
    if weight == 0.0 or len(active) == 0:
        return RankOneSpectrum(d, scale, weight, v, (), np.zeros(0))

    dd = scale * d
    ref = max(float(np.max(np.abs(dd))), 1e-300)
    order = active[np.argsort(dd[active], kind="stable")]
    groups: list[RankOneGroup] = []
    cur_idx: list[int] = []
    cur_val = 0.0
    for i in order:
        if cur_idx and abs(dd[i] - cur_val) <= deflation_rel * ref:
            cur_idx.append(int(i))
        else:
            if cur_idx:
                idx = np.array(cur_idx)
                groups.append(RankOneGroup(cur_val, idx, float(av2[idx].sum())))
            cur_idx = [int(i)]
            cur_val = float(dd[i])
    idx = np.array(cur_idx)
    groups.append(RankOneGroup(cur_val, idx, float(av2[idx].sum())))

    deltas = np.array([g.value for g in groups])
    masses = np.array([g.mass for g in groups])
    roots = _secular_roots(deltas, masses, weight)
    return RankOneSpectrum(d, scale, weight, v, tuple(groups), roots)


def _secular_roots(deltas: np.ndarray, masses: np.ndarray, weight: float) -> np.ndarray:
    """Roots of 1 + weight * sum_g masses[g] / (deltas[g] - lam) = 0.

    For positive weight the j-th root lies in (deltas[j], deltas[j+1]) and the
    last in (deltas[-1], deltas[-1] + weight * total mass).
    """
    m = len(deltas)
    total = weight * float(masses.sum())
    if m == 1:
        return np.array([deltas[0] + total])

    def f(lam: float) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 + weight * float(np.sum(masses / (deltas - lam)))

    roots = np.empty(m)
    for j in range(m):
        lo = deltas[j]
        last = j + 1 == m
        hi = deltas[j + 1] if not last else deltas[m - 1] + total
        # open the bracket by one ulp so the pole terms carry the right signs
        a = np.nextafter(lo, np.inf)
        b = hi if last else np.nextafter(hi, -np.inf)
        if b <= a:
            roots[j] = a
            continue
        fa, fb = f(a), f(b)
        if fa >= 0.0:  # root within one ulp of the left pole
            roots[j] = a
            continue
        tries = 0
        while fb <= 0.0:
            if not last:  # root within one ulp of the right pole
                roots[j] = b
                break
            # f(hi) >= 0 holds analytically at hi = max delta + total mass;
            # expand to absorb rounding of that bound
            b += max(total, abs(b) * 1e-12, 1e-300)
            fb = f(b)
            tries += 1
            if tries > 100:
                raise NumericalError(
                    f"secular solve failed to bracket root {j}: f({a})={fa}, "
                    f"f({b})={fb}, base interval ({lo}, {hi})")
        else:
            try:
                roots[j] = brentq(f, a, b, xtol=1e-300, rtol=8.9e-16, maxiter=200)
            except (RuntimeError, ValueError) as exc:
                raise NumericalError(
                    f"secular solve did not converge for root {j} in ({a}, {b}): {exc}") from exc
    return roots


@dataclass(frozen=True)
class TracePowerTerms:
    """Once-per-pair data for ``Tr( diag(d0)^s * A^{1-s} )``, A given by a spectrum.

    Holds the support references ``d0max`` and ``lam_max``, the small
    per-group slices of ``d0`` and ``|v|^2``, and the inactive-coordinate term
    ``rest``.  When ``d0`` equals the spectrum's diagonal (A = scale * diag(d0)
    plus rank one, as for every hypothesis pair), an inactive coordinate
    contributes ``d0^s (scale d0)^{1-s} = scale^{1-s} d0`` on both supports,
    so ``rest`` is the support-masked mass ``M = sum d0`` over them.  Any other
    pair keeps ``rest = (d0, d, active)`` for a per-call pass over its
    inactive coordinates.
    """

    support_tol: float
    d0max: float
    lam_max: float
    scale: float
    roots: np.ndarray
    root_weights: np.ndarray
    group_values: tuple[float, ...]
    group_d0: tuple[np.ndarray, ...]
    group_av2: tuple[np.ndarray, ...]
    group_mass: tuple[float, ...]
    rest: float | tuple[np.ndarray, np.ndarray, np.ndarray]


def trace_power_terms(d0, spectrum: RankOneSpectrum,
                      support_tol: float = DEFAULT_SUPPORT_TOL) -> TracePowerTerms:
    """Every O(dim) reduction of :func:`diag_rank_one_trace_power`, done once.

    Keeps nothing dim-sized, except references to ``d0`` and the spectrum's
    diagonal when the two differ.
    """
    d0 = np.asarray(d0, dtype=float)
    if d0.shape != spectrum.d.shape:
        raise ValueError("diagonal dimension mismatch")
    d0max = max(float(d0.max(initial=0.0)), 1e-300)
    lam_max = max(float(np.max(spectrum.roots, initial=0.0)),
                  float(np.max(spectrum.scale * spectrum.d, initial=0.0)), 1e-300)
    groups = spectrum.groups
    active = np.concatenate([g.indices for g in groups]) if groups else np.zeros(0, dtype=int)
    if np.array_equal(d0, spectrum.d):
        sup = (d0 > support_tol * d0max) & (spectrum.scale * d0 > support_tol * lam_max)
        sup[active] = False
        rest = float(np.sum(d0[sup]))
    else:
        rest = (d0, spectrum.d, active)
    return TracePowerTerms(
        support_tol, d0max, lam_max, spectrum.scale, spectrum.roots, spectrum.root_weights,
        tuple(g.value for g in groups), tuple(d0[g.indices] for g in groups),
        tuple(np.abs(spectrum.v[g.indices]) ** 2 for g in groups),
        tuple(g.mass for g in groups), rest)


def diag_rank_one_trace_power(terms: TracePowerTerms, s: float) -> float:
    """``Tr( diag(d0)^s * A^{1-s} )`` from :func:`trace_power_terms`, shared basis.

    Both powers follow the support convention of :func:`support_powers`.  The
    cost is O(active set): the secular groups plus ``scale^{1-s} M`` for the
    inactive coordinates, exact at ``s = 0`` and ``s = 1`` too.  Only a pair
    whose ``d0`` differs from the spectrum's diagonal pays one vectorized pass
    over its inactive coordinates per call.
    """
    tol = terms.support_tol

    def pow0(x: np.ndarray) -> np.ndarray:
        sup = x > tol * terms.d0max
        out = np.zeros_like(x)
        out[sup] = 1.0 if s == 0 else x[sup] ** s
        return out

    def pow1(x: np.ndarray) -> np.ndarray:
        sup = x > tol * terms.lam_max
        out = np.zeros_like(x)
        out[sup] = 1.0 if s == 1 else x[sup] ** (1.0 - s)
        return out

    total = 0.0
    if terms.group_values:
        # carrier-projected d0^s mass per group, t_g = w^dag diag(d0^s) w
        t = np.array([float(np.sum(av2 * pow0(d0g))) / mass for av2, d0g, mass
                      in zip(terms.group_av2, terms.group_d0, terms.group_mass)])
        lam_pow = pow1(terms.roots)
        total += float(np.sum(lam_pow[:, None] * terms.root_weights * t[None, :]))
        # deflated directions inside each group keep the group eigenvalue
        for value, d0g, tg in zip(terms.group_values, terms.group_d0, t):
            s_grp = float(np.sum(pow0(d0g)))
            total += pow1(np.array([value]))[0] * (s_grp - tg)
    if isinstance(terms.rest, float):
        # nonzero M needs scale > 0, so the power stays real
        if terms.rest:
            total += terms.scale ** (1.0 - s) * terms.rest
    else:
        d0, d, active = terms.rest
        inactive = np.ones(len(d0), dtype=bool)
        inactive[active] = False
        total += float(np.sum(pow0(d0[inactive]) * pow1(terms.scale * d[inactive])))
    return total


@dataclass(frozen=True)
class StructuredPair:
    """Two operators in one shared basis: ``rho0 = diag(d0)`` and
    ``rho1 = scale * diag(d1) + weight * v v^dag``.

    Every hypothesis pair has this shape, with ``d1`` the same array as
    ``d0``.  The arrays are made read-only so that one pair can be shared by
    every quantity of a point; the secular spectrum of ``rho1`` and the
    once-per-pair Q_s reductions are computed on first use and cached.
    """

    d0: np.ndarray
    d1: np.ndarray
    scale: float
    weight: float
    v: np.ndarray
    support_tol: float = DEFAULT_SUPPORT_TOL

    def __post_init__(self):
        for arr in (self.d0, self.d1, self.v):
            arr.setflags(write=False)

    @cached_property
    def spectrum(self) -> RankOneSpectrum:
        return rank_one_spectrum(self.d1, self.scale, self.weight, self.v)

    @cached_property
    def terms(self) -> TracePowerTerms:
        return trace_power_terms(self.d0, self.spectrum, self.support_tol)

    def q(self, s: float) -> float:
        """``Tr(rho0^s rho1^{1-s})`` for ``s`` in [0, 1], support convention."""
        return diag_rank_one_trace_power(self.terms, s)

    def helstrom(self, pi0: float) -> float:
        """Minimum error ``(1/2)(1 - ||pi1 rho1 - pi0 rho0||_1)``, ``pi1 = 1 - pi0``."""
        pi1 = 1.0 - pi0
        diff = pi1 * self.scale * self.d1 - pi0 * self.d0
        return 0.5 * (1.0 - rank_one_spectrum(diff, 1.0, pi1 * self.weight, self.v).trace_abs())
