"""Hermitian matrix-function engine.

Dense path: eigendecomposition, batched over the exact connected components
of the matrix, and the ``Q_s`` terms of two such decompositions.
Structured path: spectra of ``scale * diag(d) + weight * v v^dag`` through the
rank-one secular equation with deflation, which covers the mixed hypothesis
states without ever materializing them.  Both paths reduce ``Q_s`` to the one
sum of :func:`diag_rank_one_trace_power`, with powers restricted to the
support (``0^0 = 0``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

SUPPORT_TOL = 1e-12
DEFLATION_REL_GAP = 1e-13
EIGH_HERMITIAN_TOL = 1e-10
_SECULAR_MAX_ITER = 100
_SCAN_ROWS = 128


def _components(n: int, edges) -> np.ndarray:
    """Connected component of each of ``n`` vertices of the undirected graph
    with the edges ``(i[t], j[t])`` of every ``(i, j)`` in ``edges``, named by
    its smallest vertex.

    Min-label propagation with pointer jumping over the edge lists: a round
    gives each vertex the least label among itself and its neighbours, in
    O(n + edges).
    """
    label = np.arange(n)
    while True:
        new = label.copy()
        for i, j in edges:
            np.minimum.at(new, i, label[j])
            np.minimum.at(new, j, label[i])
        # labels only decrease and each names a vertex of the same component
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def nonzero_pattern(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the exactly nonzero entries of a square
    matrix, in row-major order: the one O(dim^2) scan that splitting it takes.

    The scan runs ``_SCAN_ROWS`` rows at a time.  A complex entry is nonzero
    exactly when either of its float halves is, so it compares the halves and
    reads each entry's two booleans as one ``uint16``.
    """
    n = len(mat)
    flat = [np.zeros(0, dtype=np.intp)]
    for lo in range(0, n, _SCAN_ROWS):
        chunk = np.ascontiguousarray(mat[lo:lo + _SCAN_ROWS])
        if np.iscomplexobj(chunk):
            nonzero = (chunk.view(chunk.real.dtype) != 0).view(np.uint16) != 0
        else:
            nonzero = chunk != 0
        flat.append(np.flatnonzero(nonzero) + lo * n)
    return np.divmod(np.concatenate(flat), n)


def components(n: int, patterns) -> list[np.ndarray]:
    """The split of ``n x n`` matrices with the nonzero ``patterns`` (see
    :func:`nonzero_pattern`): the connected components of the graph of all
    their entries and their adjoints', grouped by size ``k``, ascending, as
    one ``(m, k)`` array of basis indices each, in label order.  Each matrix
    is zero off its diagonal blocks on the split.  O(nonzero entries).
    """
    label = _components(n, patterns)
    sizes = np.bincount(label, minlength=n)[label]
    order = np.lexsort((label, sizes))
    ks, counts = np.unique(sizes[order], return_counts=True)
    return [part.reshape(-1, k) for part, k in zip(np.split(order, np.cumsum(counts)[:-1]), ks)]


def blocks(mat: np.ndarray, groups) -> list[np.ndarray]:
    """The ``(m, k, k)`` diagonal blocks of ``mat`` on each of ``groups``."""
    return [mat[rows[:, :, None], rows[:, None, :]] for rows in groups]


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def eigh(matrix: np.ndarray, groups=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hermitian eigendecomposition with an input symmetry check, per block.

    Decomposes each block of a split on its own, one batched
    ``np.linalg.eigh`` per component size; a fully dense matrix is one
    component.  Returns, per ``(m, k)`` array of ``groups``, the ``(w, V)``
    of its ``m`` blocks: ``(m, k)`` ascending eigenvalues and ``(m, k, k)``
    column eigenvectors on the block's rows.  ``groups`` is a split that
    holds every nonzero entry of the matrix, such as the :func:`components`
    of two operators' joined patterns; by default the components of the
    matrix's own pattern.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if groups is None:
        groups = components(len(mat), [nonzero_pattern(mat)])
    stacks = blocks(mat, groups)
    # the blocks hold every nonzero entry of mat and mat^dag, so these are
    # the maxima over the whole matrix
    dev = np.max([np.max(np.abs(stack - _adjoint(stack))) for stack in stacks])
    scale = max(float(np.max([np.max(np.abs(stack)) for stack in stacks])), 1e-300)
    if dev > EIGH_HERMITIAN_TOL * scale:
        raise NumericalError(f"matrix deviates from Hermitian by {dev} (tol {EIGH_HERMITIAN_TOL * scale})")
    return [np.linalg.eigh((stack + _adjoint(stack)) / 2.0) for stack in stacks]


def block_eigvalsh(stacks) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian parts of all ``(m, k, k)``
    blocks in ``stacks``, together."""
    return np.sort(np.concatenate([np.linalg.eigvalsh((stack + _adjoint(stack)) / 2.0).ravel()
                                   for stack in stacks]))


def overlap_terms(es0, es1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms ``(c, a, b)`` of ``Q_s`` of two :func:`eigh` results on one
    split: per block, ``c[g, i, j]`` is the squared overlap ``|V0^dag V1|^2``
    of eigenvector ``i`` of the first with eigenvector ``j`` of the second,
    ``a = w0[g, i]`` and ``b = w1[g, j]``.

    Two eigenvectors overlap only on a block they share, so the table is one
    batched product per component size, O(sum k^3).
    """
    c, a, b = [], [], []
    for (w0, v0), (w1, v1) in zip(es0, es1, strict=True):
        table = np.abs(_adjoint(v0) @ v1) ** 2
        c.append(table.ravel())
        a.append(np.broadcast_to(w0[:, :, None], table.shape).ravel())
        b.append(np.broadcast_to(w1[:, None, :], table.shape).ravel())
    return np.concatenate(c), np.concatenate(a), np.concatenate(b)


# ---------------------------------------------------------------------------
# rank-one updated diagonal spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneGroup:
    """Active coordinates sharing one (scaled) diagonal value.

    ``indices`` are positions in the spectrum's ``d``.  ``mass`` is the squared
    norm of the update vector restricted to the group; the group contributes a
    single carrier direction to the secular problem, the remaining
    ``len(indices) - 1`` directions stay at ``value``.
    """

    value: float
    indices: np.ndarray
    mass: float


@dataclass(frozen=True)
class RankOneSpectrum:
    """Spectral data of ``scale * diag(d) + weight * v v^dag``.

    ``roots`` holds the secular eigenvalues (one per group, ascending with the
    group values); all other eigenvalues equal the scaled diagonal.
    ``gaps[j, g]`` is ``groups[g].value - roots[j]`` as the solver found it,
    from root ``j``'s offset to its nearer pole, so it keeps its relative
    accuracy even below the ulp of the root.  ``iterations[j]`` counts the
    solver's evaluations for root ``j`` (0 for a single group, which has a
    closed form).
    """

    d: np.ndarray
    scale: float
    weight: float
    groups: tuple[RankOneGroup, ...]
    roots: np.ndarray
    gaps: np.ndarray
    iterations: tuple[int, ...]

    @cached_property
    def active(self) -> np.ndarray:
        """Positions of the grouped coordinates, the only ones the update moves."""
        return np.concatenate([np.zeros(0, dtype=int)] + [g.indices for g in self.groups])

    @cached_property
    def inactive(self) -> np.ndarray:
        """Mask of the ungrouped coordinates, which keep ``scale * d``."""
        mask = np.ones(len(self.d), dtype=bool)
        mask[self.active] = False
        return mask

    @cached_property
    def root_weights(self) -> np.ndarray:
        """|q_j[g]|^2 for secular root j on group carrier g, shape (m, m).

        These are the weights of the exact eigenvectors of the computed roots:
        the carrier norms ``|z_g|^2`` are recomputed from the roots by
        Loewner's formula (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 15,
        1994), ``prod_j (root_j - value_g) / (weight prod_{k != g} (value_k -
        value_g))``, taken as a product of ratios of order one.  With the
        solver's ``gaps`` the eigenvectors stay orthogonal when a root lies
        near a pole, so the matrix is doubly stochastic to rounding.  The
        common factor ``1 / weight`` cancels in the normalization.
        """
        m = len(self.groups)
        if m == 0:
            return np.zeros((0, 0))
        values = np.array([g.value for g in self.groups])
        # poles[g]: value_k - value_g for k != g, in order; root j < g pairs
        # with pole j, root j >= g with pole j + 1
        poles = (values[None, :] - values[:, None])[~np.eye(m, dtype=bool)].reshape(m, m - 1)
        z2 = -self.gaps[-1] * np.prod(-self.gaps[:-1].T / poles, axis=1)
        out = z2 / self.gaps ** 2
        return out / out.sum(axis=1, keepdims=True)

    def trace_abs(self) -> float:
        """Sum of |eigenvalue| over the full spectrum (trace norm)."""
        total = float(np.sum(np.abs(self.roots)))
        for g in self.groups:
            total += abs(g.value) * (len(g.indices) - 1)
        total += float(np.sum(np.abs(self.scale * self.d[self.inactive])))
        return total


def rank_one_spectrum(d, scale: float, weight: float, v,
                      ref: float | None = None) -> RankOneSpectrum:
    """Eigen data of ``scale * diag(d) + weight * v v^dag`` for weight >= 0.

    ``d`` and ``v`` may hold only the coordinates where ``v`` is nonzero; then
    ``ref`` gives the largest ``|scale * d|`` over all of them (by default the
    largest over ``d``).  A coordinate whose update component is at the
    rounding level of the whole operator keeps its diagonal value: the
    deflation test ``weight ||v|| |v_i| <= 8 eps max(ref, weight ||v||^2)`` of
    Bunch, Nielsen and Sorensen (Numer. Math. 31, 1978), as LAPACK ``dlaed2``
    applies it.  Without it such a root sits within one ulp of its pole and
    its eigenvector weights fall apart.  The remaining coordinates are grouped
    by (nearly) equal scaled diagonal value (relative gap below
    ``DEFLATION_REL_GAP``), each group carrying one secular direction.
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=complex)
    if d.shape != v.shape:
        raise ValueError(f"diagonal and vector shapes differ: {d.shape} vs {v.shape}")
    if weight < 0:
        raise NumericalError("rank-one update weight must be nonnegative")

    dd = scale * d
    if ref is None:
        ref = float(np.max(np.abs(dd), initial=0.0))
    ref = max(ref, 1e-300)
    absv = np.abs(v)
    av2 = absv ** 2
    norm = math.sqrt(float(av2.sum()))
    tol = 8.0 * sys.float_info.epsilon * max(ref, weight * norm ** 2)
    active = np.nonzero(weight * norm * absv > tol)[0]
    if len(active) == 0:
        return RankOneSpectrum(d, scale, weight, (), np.zeros(0), np.zeros((0, 0)), ())

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

    roots, gaps, iterations = _secular_roots([g.value for g in groups],
                                             [g.mass for g in groups], weight)
    return RankOneSpectrum(d, scale, weight, tuple(groups), np.array(roots),
                           np.array(gaps), tuple(iterations))


def _secular_roots(deltas: list[float], masses: list[float],
                   weight: float) -> tuple[list[float], list[list[float]], list[int]]:
    """Roots of ``1 + weight * sum_g masses[g] / (deltas[g] - lam) = 0``.

    ``deltas`` ascend strictly and may have either sign; ``masses`` and
    ``weight`` are positive.  Root ``j`` lies in ``(deltas[j], deltas[j+1])``,
    the last in ``(deltas[-1], deltas[-1] + weight * sum(masses))``.  Returns
    the roots, ``gaps[j][g] = deltas[g] - root_j`` and the evaluations spent
    on each root.

    The scheme of LAPACK ``dlaed4`` (R.-C. Li, LAPACK Working Note 89, 1994),
    in plain floats, which for a few groups cost less than one numpy call.
    Each root is sought as an offset ``tau`` from the nearer pole of its
    interval, so its gaps keep full relative accuracy however close it lies
    to a pole.  A step solves the two-pole model fitted to the value and slope
    of the sums on either side (Li's middle way), with bisection when it
    leaves the bracket; the solve stops when ``|f|`` is within ``dlaed4``'s
    rounding-error bound or the bracket is a few ulps wide.  A root that
    rounds onto a pole is placed one ulp inside its interval.
    """
    m = len(deltas)
    total = weight * sum(masses)
    if m == 1:
        return [_inside(deltas, 0, deltas[0] + total)], [[-total]], [0]
    rhoinv = 1.0 / weight
    roots, gaps, iterations = [], [], []
    for j in range(m):
        last = j + 1 == m
        split = min(j + 1, m - 1)  # the step model's poles: split - 1 and split
        origin = j
        shifted = [x - deltas[j] for x in deltas]
        if last:
            # f >= 0 holds analytically at deltas[-1] + weight * sum(masses);
            # where rounding says otherwise, twice that offset has f >= 1/2
            lo, hi = 0.0, total
            if _secular_eval(shifted, masses, rhoinv, hi, split)[0] < 0.0:
                hi = 2.0 * total
            tau = hi
        else:
            half = 0.5 * shifted[j + 1]
            if _secular_eval(shifted, masses, rhoinv, half, split)[0] > 0.0:
                lo, hi, tau = 0.0, half, half
            else:
                origin = j + 1
                shifted = [x - deltas[j + 1] for x in deltas]
                lo, hi, tau = -half, 0.0, -half
        for count in range(1, _SECULAR_MAX_ITER + 1):
            f, dpsi, dphi, bound = _secular_eval(shifted, masses, rhoinv, tau, split)
            if f < 0.0:
                lo = tau
            elif f > 0.0:
                hi = tau
            if (abs(f) <= sys.float_info.epsilon * bound
                    or hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi)))):
                break
            # the model c + sl / (pl - x) + sr / (pr - x) = 0 in the new offset
            # x; one of its poles is the origin, so x keeps its relative
            # accuracy however small it is
            pl, pr = shifted[split - 1], shifted[split]
            sl, sr = dpsi * (pl - tau) ** 2, dphi * (pr - tau) ** 2
            c = f - (pl - tau) * dpsi - (pr - tau) * dphi
            a = c * (pl + pr) + sl + sr
            b = c * pl * pr + sl * pr + sr * pl
            if last:  # both poles lie left of the root: the larger model root
                # a vanishing c puts that root at infinity, so the step bisects
                c = max(abs(c), sys.float_info.min)
                disc = math.sqrt(abs(a * a - 4.0 * b * c))
                x = (a + disc) / (2.0 * c) if a >= 0 else 2.0 * b / (a - disc)
            else:  # the model root between the two poles; c = 0 gives a > 0
                disc = math.sqrt(abs(a * a - 4.0 * b * c))
                x = (a - disc) / (2.0 * c) if a <= 0 else 2.0 * b / (a + disc)
            # tau is an end of the bracket, so a step the wrong way leaves it too
            tau = x if lo < x < hi else 0.5 * (lo + hi)
        else:
            raise NumericalError(
                f"secular solve did not converge for root {j} in ({deltas[origin] + lo}, "
                f"{deltas[origin] + hi}) after {_SECULAR_MAX_ITER} evaluations")
        roots.append(_inside(deltas, j, deltas[origin] + tau))
        gaps.append([x - tau for x in shifted])
        iterations.append(count)
    return roots, gaps, iterations


def _secular_eval(shifted, masses, rhoinv, tau, split):
    """``f / weight = 1 / weight + psi + phi`` at offset ``tau`` from the origin
    pole, the slopes of ``psi`` (poles ``k < split``) and ``phi`` (the rest),
    and ``dlaed4``'s bound on the rounding error of ``f / weight`` over eps."""
    psi = dpsi = partial = 0.0
    for k in range(split):
        t = masses[k] / (shifted[k] - tau)
        psi += t
        dpsi += t / (shifted[k] - tau)
        partial += psi
    bound = abs(partial)
    phi = dphi = partial = 0.0
    for k in range(len(shifted) - 1, split - 1, -1):
        t = masses[k] / (shifted[k] - tau)
        phi += t
        dphi += t / (shifted[k] - tau)
        partial += phi
    bound += abs(partial) + 8.0 * (abs(phi) + abs(psi)) + 2.0 * rhoinv \
        + 3.0 * abs(tau) * (dpsi + dphi)
    return rhoinv + psi + phi, dpsi, dphi, bound


def _inside(deltas, j, root):
    """``root`` moved one ulp inside ``(deltas[j], deltas[j + 1])`` if it
    rounded onto or past either pole."""
    if root <= deltas[j]:
        return math.nextafter(deltas[j], math.inf)
    if j + 1 < len(deltas) and root >= deltas[j + 1]:
        return math.nextafter(deltas[j + 1], -math.inf)
    return root


def _kron_mass(factors, t0: float, scale: float, t1: float) -> float:
    """Sum of the entries ``x`` of ``kron(*factors)`` with ``x > t0`` and
    ``scale * x > t1``, both as rounded, in O(c log c) for cutoff c.

    An entry is a row value ``r``, the product of the leading factors, times
    an entry ``z`` of the last factor, rounded as ``np.kron`` rounds it.
    Rounding is monotone, so for ``r > 0`` both tests hold on a suffix of the
    sorted last factor: ``searchsorted`` finds its start to within rounding
    and the exact tests at its neighbours settle it.  Rows with ``r <= 0`` hold
    no supported entry, since the last factor is nonnegative unless it is the
    only one.
    """
    if scale <= 0:
        return 0.0
    rows = np.ones(1)
    for f in factors[:-1]:
        rows = np.multiply.outer(rows, f).ravel()
    rows = rows[rows > 0]
    z, counts = np.unique(factors[-1], return_counts=True)
    # tails[k]: the last factor's entries summed from its k-th distinct value on
    tails = np.concatenate((np.cumsum((z * counts)[::-1])[::-1], [0.0]))

    def supported(k):
        x = rows * z.take(k, mode="clip")
        return (k >= 0) & (k < len(z)) & (x > t0) & (scale * x > t1)

    k = np.searchsorted(z, max(t0, t1 / scale) / rows)
    while True:
        down = supported(k - 1)
        up = (k < len(z)) & ~supported(k)
        if not (down.any() or up.any()):
            return float(rows @ tails[k])
        k = k - down + up


@dataclass(frozen=True)
class StructuredPair:
    """Two operators in one shared basis, ``rho0 = diag(d0)`` and
    ``rho1 = scale * diag(d0) + weight * v v^dag``, held without any array of
    the full dimension.

    ``d0`` is the Kronecker product of the per-mode marginals ``factors``
    (mode 0 slowest, rounded as ``np.kron`` rounds it).  ``v`` is sparse: its
    nonzero entries ``v_value`` at the flat indices ``v_index``.  The arrays
    are made read-only so that one pair can be shared by every quantity of a
    point.  The secular spectrum of ``rho1`` on the support of ``v`` and the
    terms of ``Q_s`` are computed on first use and cached; every reduction
    costs O(cutoff log cutoff) or less.
    """

    factors: tuple[np.ndarray, ...]
    scale: float
    weight: float
    v_index: np.ndarray
    v_value: np.ndarray

    def __post_init__(self):
        if self.v_index.shape != self.v_value.shape:
            raise ValueError("sparse vector indices and values differ in shape")
        for arr in (*self.factors, self.v_index, self.v_value):
            arr.setflags(write=False)

    @cached_property
    def _local(self) -> np.ndarray:
        """``d0`` on the support of ``v``, rounded as ``np.kron`` rounds it."""
        d0 = np.ones(len(self.v_index))
        coords = np.unravel_index(self.v_index, tuple(len(f) for f in self.factors))
        for f, i in zip(self.factors, coords):
            d0 = d0 * f[i]
        return d0

    @cached_property
    def _d0max(self) -> float:
        """Largest entry of ``d0``: the product of the factor maxima, exactly,
        because rounding is monotone for nonnegative factors."""
        return math.prod(float(f.max(initial=0.0)) for f in self.factors)

    @cached_property
    def spectrum(self) -> RankOneSpectrum:
        """Secular spectrum of ``rho1`` on the support of ``v``; off it ``rho1``
        is ``scale * diag(d0)``."""
        return rank_one_spectrum(self._local, self.scale, self.weight, self.v_value,
                                 abs(self.scale) * self._d0max)

    @cached_property
    def _thresholds(self) -> tuple[float, float]:
        """Support thresholds of ``rho0`` and ``rho1``: ``SUPPORT_TOL`` times
        their largest eigenvalues."""
        lam_max = max(float(np.max(self.spectrum.roots, initial=0.0)),
                      abs(self.scale) * self._d0max)
        return SUPPORT_TOL * max(self._d0max, 1e-300), SUPPORT_TOL * max(lam_max, 1e-300)

    @cached_property
    def _inactive_mass(self) -> float:
        """Support-masked mass ``M = sum d0`` off the support of ``v``.

        Such a coordinate contributes ``d0^s (scale d0)^{1-s} = scale^{1-s} d0``
        on both supports.
        """
        t0, t1 = self._thresholds
        d0 = self._local
        local = d0[(d0 > t0) & (self.scale * d0 > t1)]
        return _kron_mass(self.factors, t0, self.scale, t1) - float(np.sum(local))

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(c, a, b)`` with ``Q_s = sum_k c_k a_k^s b_k^{1-s}`` for s in [0, 1].

        ``a`` is an eigenvalue of ``rho0``, ``b`` one of ``rho1`` and ``c`` the
        squared overlap of their eigenvectors:

        * secular root ``j`` with grouped coordinate ``i`` of group ``g``:
          ``c = W[j, g] |v_i|^2 / mass_g``;
        * the deflated directions of group ``g``, at the group value:
          ``c = 1 - |v_i|^2 / mass_g``;
        * a coordinate of the support of ``v`` outside the groups keeps
          ``b = scale * d0``;
        * the other coordinates make one term, ``M`` at ``a = 1``,
          ``b = scale``.

        Under ``0^0 = 0`` a term off either support is zero for every ``s``,
        so it is dropped; the rest need no support test per call.
        """
        spectrum = self.spectrum
        d0 = self._local
        av2 = np.abs(self.v_value) ** 2
        roots = spectrum.roots
        rest = spectrum.inactive
        c, a, b = [np.ones(rest.sum())], [d0[rest]], [self.scale * d0[rest]]
        for g, weights in zip(spectrum.groups, spectrum.root_weights.T):
            share = av2[g.indices] / g.mass
            a_g = d0[g.indices]
            c += [np.outer(weights, share).ravel(), 1.0 - share]
            a += [np.tile(a_g, len(roots)), a_g]
            b += [np.repeat(roots, len(a_g)), np.full(len(a_g), g.value)]
        c, a, b = (np.concatenate(x) for x in (c, a, b))
        t0, t1 = self._thresholds
        keep = (a > t0) & (b > t1) & (c != 0.0)
        c, a, b = c[keep], a[keep], b[keep]
        mass = self._inactive_mass
        if mass:
            # nonzero M needs scale > 0, so the power stays real
            c, a, b = (np.concatenate((x, [y])) for x, y in ((c, mass), (a, 1.0), (b, self.scale)))
        return c, a, b

    def q(self, s: float | np.ndarray) -> float | np.ndarray:
        """``Tr(rho0^s rho1^{1-s})`` for ``s`` (or a grid) in [0, 1], support convention."""
        return diag_rank_one_trace_power(self._terms, s)

    def helstrom(self, pi0: float) -> float:
        """Minimum error ``(1/2)(1 - ||pi1 rho1 - pi0 rho0||_1)``, ``pi1 = 1 - pi0``.

        On the support of ``v`` the trace norm comes from a secular problem.
        Off it the operator is ``diag(pi1 scale d0 - pi0 d0)``, whose trace
        norm is ``|pi1 scale - pi0|`` times the mass of ``d0`` there.
        """
        pi1 = 1.0 - pi0
        a = pi1 * self.scale
        d0 = self._local
        ref = abs(a - pi0) * self._d0max
        total = math.prod(float(f.sum()) for f in self.factors)
        off = abs(a - pi0) * (total - float(np.sum(d0)))
        local = rank_one_spectrum(a * d0 - pi0 * d0, 1.0, pi1 * self.weight, self.v_value, ref)
        return 0.5 * (1.0 - local.trace_abs() - off)


def diag_rank_one_trace_power(terms, s: float | np.ndarray) -> float | np.ndarray:
    """``Q_s = sum_k c_k a_k^s b_k^{1-s}`` over the terms ``(c, a, b)`` of a pair.

    ``a`` and ``b`` hold eigenvalues of ``rho0`` and ``rho1`` on their
    supports and ``c`` the squared overlaps of the eigenvectors; a term off
    either support is zero for every ``s`` under ``0^0 = 0`` and is left out
    beforehand, so the sum is exact at ``s = 0`` and ``s = 1`` too.  Both lanes
    evaluate here: the structured pair's :attr:`StructuredPair._terms` and the
    dense overlap table.  A 1-D grid of ``s`` gives the float values as an
    array, bit for bit.
    """
    c, a, b = terms
    # a Python number is a scalar without the cost of np.ndim
    if isinstance(s, (float, int)) or np.ndim(s) == 0:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s={s} outside [0, 1]")
        return float(np.add.reduce(c * a ** s * b ** (1.0 - s)))
    s = np.asarray(s, dtype=float)
    outside = ~((0.0 <= s) & (s <= 1.0))
    if outside.any():
        raise ValueError(f"s={s[outside][0]} outside [0, 1]")
    col = s[:, None]
    q = np.add.reduce(c * a ** col * b ** (1.0 - col), axis=1)
    # a float exponent 0.5 takes sqrt, which rounds apart from pow in the last bit
    q[s == 0.5] = np.add.reduce(c * a ** 0.5 * b ** 0.5)
    return q
