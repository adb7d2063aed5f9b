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

SUPPORT_TOL = 1e-12
DEFLATION_REL_GAP = 1e-13
EIGH_HERMITIAN_TOL = 1e-10
TRACE_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the matching unitary column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(matrix: np.ndarray, dense_limit: int | None = None) -> EigenSystem:
    """Hermitian eigendecomposition with an input symmetry check."""
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dense_limit is not None and mat.shape[0] > dense_limit:
        raise NumericalError(f"dimension {mat.shape[0]} exceeds dense limit {dense_limit}")
    dev = np.max(np.abs(mat - mat.conj().T))
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    if dev > EIGH_HERMITIAN_TOL * scale:
        raise NumericalError(f"matrix deviates from Hermitian by {dev} (tol {EIGH_HERMITIAN_TOL * scale})")
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    return EigenSystem(w, v)


def _powers(x: np.ndarray, p: float, ref: float) -> np.ndarray:
    """``x^p`` on the support ``x > SUPPORT_TOL * ref`` and 0 off it (0^0 = 0)."""
    sup = x > SUPPORT_TOL * ref
    out = np.zeros_like(x)
    out[sup] = 1.0 if p == 0 else x[sup] ** p
    return out


def support_powers(eigenvalues: np.ndarray, s: float) -> np.ndarray:
    """Eigenvalue map lambda -> lambda^s with 0^0 = 0 on the truncated support.

    Values below ``SUPPORT_TOL * max`` count as zero; ``s = 0`` therefore
    yields the support indicator.
    """
    w = np.asarray(eigenvalues, dtype=float)
    top = float(np.max(w, initial=0.0))
    if float(np.min(w, initial=0.0)) < -1e-10 * max(top, 1e-300):
        raise NumericalError(f"negative eigenvalue {w.min()} beyond PSD tolerance")
    return _powers(w, s, max(top, 1e-300))


def matrix_power(rho, s: float) -> np.ndarray:
    """Fractional power of a PSD operator via functional calculus.

    Accepts a dense matrix or anything with ``to_dense()``.  ``s`` must lie in
    [0, 1]; ``s = 0`` returns the support projector.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"power s={s} outside [0, 1]")
    mat = rho.to_dense() if hasattr(rho, "to_dense") else np.asarray(rho)
    es = eigh(mat)
    f = support_powers(es.eigenvalues, s)
    return (es.eigenvectors * f) @ es.eigenvectors.conj().T


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of Tr(AB) for Hermitian A, B; warns on imaginary residue.

    ``TRACE_IMAG_TOL`` is relative to ``sum |a_ij b_ji|``, the scale of the
    rounding error of the summed trace, not to ``|Tr(AB)|``: a trace-orthogonal
    Hermitian pair has ``|Tr(AB)|`` at the rounding level itself.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    terms = a * b.T
    t = complex(np.sum(terms))
    scale = float(np.sum(np.abs(terms)))
    if abs(t.imag) > TRACE_IMAG_TOL * scale:
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
    def active(self) -> np.ndarray:
        """Indices of the grouped coordinates, the only ones the update touches."""
        return np.concatenate([np.zeros(0, dtype=int)] + [g.indices for g in self.groups])

    @cached_property
    def inactive(self) -> np.ndarray:
        """Mask of the ungrouped coordinates, which keep ``scale * d``."""
        mask = np.ones(len(self.d), dtype=bool)
        mask[self.active] = False
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
        parts.append(self.scale * self.d[self.inactive])
        return np.sort(np.concatenate(parts))

    def trace_abs(self) -> float:
        """Sum of |eigenvalue| over the full spectrum (trace norm)."""
        total = float(np.sum(np.abs(self.roots)))
        for g in self.groups:
            total += abs(g.value) * (len(g.indices) - 1)
        total += float(np.sum(np.abs(self.scale * self.d[self.inactive])))
        return total


def rank_one_spectrum(d, scale: float, weight: float, v) -> RankOneSpectrum:
    """Eigen data of ``scale * diag(d) + weight * v v^dag`` for weight >= 0.

    Coordinates where ``v`` vanishes keep their diagonal values; active
    coordinates are grouped by (nearly) equal scaled diagonal value (relative
    gap below ``DEFLATION_REL_GAP``), each group carrying one secular direction.
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
        if cur_idx and abs(dd[i] - cur_val) <= DEFLATION_REL_GAP * ref:
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
class StructuredPair:
    """Two operators in one shared basis: ``rho0 = diag(d0)`` and
    ``rho1 = scale * diag(d1) + weight * v v^dag``.

    Every hypothesis pair has this shape, with ``d1`` the same array as
    ``d0``.  The arrays are made read-only so that one pair can be shared by
    every quantity of a point.  The secular spectrum of ``rho1`` and every
    O(dim) reduction of :func:`diag_rank_one_trace_power` are computed on
    first use and cached.
    """

    d0: np.ndarray
    d1: np.ndarray
    scale: float
    weight: float
    v: np.ndarray

    def __post_init__(self):
        if self.d0.shape != self.d1.shape:
            raise ValueError("diagonal dimension mismatch")
        for arr in (self.d0, self.d1, self.v):
            arr.setflags(write=False)

    @cached_property
    def spectrum(self) -> RankOneSpectrum:
        return rank_one_spectrum(self.d1, self.scale, self.weight, self.v)

    @cached_property
    def _support_refs(self) -> tuple[float, float]:
        """Support references of ``rho0`` and ``rho1``: their largest eigenvalues."""
        d0max = max(float(self.d0.max(initial=0.0)), 1e-300)
        lam_max = max(float(np.max(self.spectrum.roots, initial=0.0)),
                      float(np.max(self.scale * self.d1, initial=0.0)), 1e-300)
        return d0max, lam_max

    @cached_property
    def _groups(self) -> tuple[tuple[float, float, np.ndarray, np.ndarray], ...]:
        """Per secular group: its value, its mass and the slices of ``d0`` and ``|v|^2``."""
        return tuple((g.value, g.mass, self.d0[g.indices], np.abs(self.v[g.indices]) ** 2)
                     for g in self.spectrum.groups)

    @cached_property
    def _inactive_mass(self) -> float | None:
        """Support-masked mass ``M = sum d0`` over the ungrouped coordinates.

        When ``d0`` equals ``d1`` an ungrouped coordinate contributes
        ``d0^s (scale d0)^{1-s} = scale^{1-s} d0`` on both supports.  ``None``
        for any other pair, which pays a pass over those coordinates per call.
        """
        if not np.array_equal(self.d0, self.d1):
            return None
        d0max, lam_max = self._support_refs
        sup = (self.d0 > SUPPORT_TOL * d0max) & (self.scale * self.d0 > SUPPORT_TOL * lam_max)
        sup[self.spectrum.active] = False
        return float(np.sum(self.d0[sup]))

    def q(self, s: float) -> float:
        """``Tr(rho0^s rho1^{1-s})`` for ``s`` in [0, 1], support convention."""
        return diag_rank_one_trace_power(self, s)

    def helstrom(self, pi0: float) -> float:
        """Minimum error ``(1/2)(1 - ||pi1 rho1 - pi0 rho0||_1)``, ``pi1 = 1 - pi0``."""
        pi1 = 1.0 - pi0
        diff = pi1 * self.scale * self.d1 - pi0 * self.d0
        return 0.5 * (1.0 - rank_one_spectrum(diff, 1.0, pi1 * self.weight, self.v).trace_abs())


def diag_rank_one_trace_power(pair: StructuredPair, s: float) -> float:
    """``Tr( diag(d0)^s * rho1^{1-s} )`` for a :class:`StructuredPair`.

    Both powers follow the support convention of :func:`support_powers`.  The
    cost is O(active set): the secular groups plus ``scale^{1-s} M`` for the
    ungrouped coordinates, exact at ``s = 0`` and ``s = 1`` too.  Only a pair
    whose ``d0`` differs from ``d1`` pays one vectorized pass over its
    ungrouped coordinates per call.
    """
    spectrum = pair.spectrum
    d0max, lam_max = pair._support_refs
    total = 0.0
    if pair._groups:
        d0_pow = [_powers(d0g, s, d0max) for _, _, d0g, _ in pair._groups]
        # carrier-projected d0^s mass per group, t_g = w^dag diag(d0^s) w
        t = np.array([float(np.sum(av2 * p0)) / mass
                      for (_, mass, _, av2), p0 in zip(pair._groups, d0_pow)])
        lam_pow = _powers(spectrum.roots, 1.0 - s, lam_max)
        total += float(np.sum(lam_pow[:, None] * spectrum.root_weights * t[None, :]))
        # deflated directions inside each group keep the group eigenvalue
        for (value, _, _, _), p0, tg in zip(pair._groups, d0_pow, t):
            total += _powers(np.array([value]), 1.0 - s, lam_max)[0] * (float(np.sum(p0)) - tg)
    mass = pair._inactive_mass
    if mass is None:
        inactive = spectrum.inactive
        total += float(np.sum(_powers(pair.d0[inactive], s, d0max)
                              * _powers(pair.scale * pair.d1[inactive], 1.0 - s, lam_max)))
    elif mass:
        # nonzero M needs scale > 0, so the power stays real
        total += pair.scale ** (1.0 - s) * mass
    return total
