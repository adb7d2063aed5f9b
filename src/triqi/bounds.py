"""Quantum hypothesis-testing quantities for the two illumination hypotheses.

Implements Q_s = Tr(rho0^s rho1^{1-s}), its golden-section minimization (the
Chernoff quantity), the s = 1/2 Bhattacharyya evaluation and the Helstrom
optimum, plus the closed-form error bounds of the three-photon and the
two-mode Gaussian benchmark protocols.
"""

from __future__ import annotations

import math
import sys
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, RegimeWarning
from . import spectral
from .fock import DensityOperator, as_diag_plus_low_rank
# eigh is called as spectral.eigh; it stays bound for callers that reach it as bounds.eigh
from .spectral import (SUPPORT_TOL, StructuredPair, diag_rank_one_trace_power, eigh,  # noqa: F401
                       overlap_terms)
from .states import (HIGH_NOISE_MIN_NBAR, SMALL_ETA_MAX, ETA_INVN2_FACTOR,
                     HypothesisPair, ProtocolParams, pair_for)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

CONVEXITY_SLACK = 1e-9
GRID_STEP = 0.05
MAX_ITER = 200

# The benchmark bound is stated for low background occupancy (N_B << 1) while
# the sensitivity comparison assumes high background occupancy (nbar >> 1);
# both conditions are surfaced together without reconciliation.
GAUSSIAN_REGIME_NOTE = (
    "benchmark regime stated for low background occupancy, comparison assumes high "
    "background occupancy; surfaced without reconciliation"
)


def _shared_basis(rho0: DensityOperator, rho1: DensityOperator) -> StructuredPair | None:
    """Detect the two operators of one :func:`states.build_hypothesis_pair`,
    in build order.

    Returns the :class:`StructuredPair` held by ``rho1``, which has the
    rank-one term.  ``rho0`` must have none, scale 1 and the build's own
    ``factors`` and ``mode_rotations`` tuples; any other pair, even one of
    equal arrays or the reversed order, gets ``None``: the dense lane.
    """
    try:
        s0 = as_diag_plus_low_rank(rho0).structure
        s1 = as_diag_plus_low_rank(rho1).structure
    except NumericalError:
        return None
    p0, p1 = s0.pair, s1.pair
    if (p0.v_index.size > 0 or p0.scale != 1.0 or p0.factors is not p1.factors
            or s0.mode_rotations is not s1.mode_rotations):
        return None
    return p1


def _check_space(rho0: DensityOperator, rho1: DensityOperator) -> None:
    if rho0.space.cutoffs != rho1.space.cutoffs:
        raise ValueError(f"space mismatch: {rho0.space.cutoffs} vs {rho1.space.cutoffs}")


class _PairContext:
    """What every quantity of one user-supplied pair reads, built once.

    The two operators of one build, in build order, read its
    :class:`StructuredPair`.  Any other pair splits once on the
    :func:`spectral.components` of both operators' joined nonzero patterns:
    ``Q_s`` decomposes each operator there, so both eigensystems share their
    rows, and Helstrom forms ``pi1 rho1 - pi0 rho0`` block by block there.
    The operators are held by weak reference only.
    """

    def __init__(self, rho0: DensityOperator, rho1: DensityOperator):
        _check_space(rho0, rho1)
        self.refs = (weakref.ref(rho0, _forget), weakref.ref(rho1, _forget))
        self.structured = _shared_basis(rho0, rho1)
        if self.structured is None:
            self.groups = spectral.components(rho0.space.total_dim,
                                              [rho0.nonzero_pattern, rho1.nonzero_pattern])

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """The terms ``(c, a, b)`` of ``Q_s``."""
        if self.structured is not None:
            return self.structured._terms
        es0, es1 = (spectral.eigh(ref().to_dense(), self.groups) for ref in self.refs)
        i, j, c = overlap_terms(es0, es1)
        a, b = es0.eigenvalues[i], es1.eigenvalues[j]
        keep = np.ones(len(c), dtype=bool)
        for name, w, x in (("rho0", es0.eigenvalues, a), ("rho1", es1.eigenvalues, b)):
            top = max(float(w.max()), 1e-300)
            if w.min() < -1e-10 * top:
                raise NumericalError(f"{name} has negative eigenvalue {w.min()} beyond tolerance")
            if abs(float(w.sum()) - 1.0) > 1e-10:
                raise NumericalError(f"{name} has trace {float(w.sum())}, not 1 within 1e-10")
            keep &= x > SUPPORT_TOL * top
        return c[keep], a[keep], b[keep]

    def q(self, s: float | np.ndarray) -> float | np.ndarray:
        return diag_rank_one_trace_power(self.terms, s)

    def helstrom(self, pi0: float) -> float:
        if self.structured is not None:
            return self.structured.helstrom(pi0)
        self.terms  # the checks of Q_s: Hermitian, PSD, unit trace
        m0, m1 = (spectral.blocks(ref().to_dense(), self.groups) for ref in self.refs)
        eigs = spectral.block_eigvalsh((1.0 - pi0) * s1 - pi0 * s0 for s0, s1 in zip(m0, m1))
        return 0.5 * (1.0 - float(np.sum(np.abs(eigs))))


_last_context: _PairContext | None = None


def _pair_context(rho0: DensityOperator, rho1: DensityOperator) -> _PairContext:
    """The :class:`_PairContext` of ``(rho0, rho1)``, in this order: the last
    one built, while both of its operators live, or a new one.  Threads that
    race on the cache can only cost each other a rebuild."""
    global _last_context
    last = _last_context
    if last is not None and last.refs[0]() is rho0 and last.refs[1]() is rho1:
        return last
    _last_context = context = _PairContext(rho0, rho1)
    return context


def _forget(ref: weakref.ref) -> None:
    """Drop the cached context once either of its operators dies."""
    global _last_context
    last = _last_context
    if last is not None and (ref is last.refs[0] or ref is last.refs[1]):
        _last_context = None


def q_s(rho0: DensityOperator, rho1: DensityOperator, s: float) -> float:
    """Tr(rho0^s rho1^{1-s}) with powers restricted to the support (0^0 = 0)."""
    return _pair_context(rho0, rho1).q(s)


@dataclass(frozen=True)
class ChernoffResult:
    s_star: float
    q_star: float
    exponent: float
    grid: tuple


def chernoff(rho0: DensityOperator, rho1: DensityOperator, tol: float = 1e-6) -> ChernoffResult:
    """Minimize Q_s over s in [0, 1] by golden-section search.

    A coarse grid pre-scan certifies convexity (second differences above
    ``-CONVEXITY_SLACK``) before the unimodal search is trusted; the scan also
    supplies the reported Q_s curve, endpoints included.
    """
    return _golden_section(_pair_context(rho0, rho1).q, tol)


def _golden_section(q, tol: float) -> ChernoffResult:
    """The search of :func:`chernoff` over any Q_s evaluator ``q``: one call
    on the 1-D pre-scan grid, then a float call per step."""
    # NaN fails every comparison, so a NaN tolerance must not pass as positive
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    grid_s = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
    grid_q = q(grid_s)
    second = grid_q[2:] - 2.0 * grid_q[1:-1] + grid_q[:-2]
    if second.size and float(second.min()) < -CONVEXITY_SLACK:
        raise NumericalError(
            f"Q_s pre-scan is not convex (min second difference {second.min():.3e}); "
            "golden-section minimization would be unreliable")

    a, b = 0.0, 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = q(c), q(d)
    iters = 0
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = q(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = q(d)
        iters += 1
        if iters > MAX_ITER:
            raise NumericalError(f"golden-section did not converge; last bracket [{a}, {b}]")
    s_star = 0.5 * (a + b)
    q_star = q(s_star)
    # the infimum may sit at an endpoint of the closed interval
    for s_end, q_end in ((0.0, float(grid_q[0])), (1.0, float(grid_q[-1]))):
        if q_end < q_star:
            s_star, q_star = s_end, q_end
    exponent = max(-math.log(q_star), 0.0) if q_star > 0 else math.inf
    return ChernoffResult(s_star, q_star, exponent, tuple(zip(grid_s.tolist(), grid_q.tolist())))


def check_shot_count(m_shots) -> None:
    """Reject a shot count that is not an integer in [1, largest float]; a bool is not one."""
    if isinstance(m_shots, bool) or not isinstance(m_shots, (int, np.integer)) or m_shots < 1:
        raise ValueError(f"shot count must be >= 1 (an integer), got {m_shots!r}")
    if m_shots > sys.float_info.max:
        raise ValueError(f"shot count must be at most {sys.float_info.max!r} (the largest float), "
                         f"got {len(str(m_shots))} digits")


def bhattacharyya_bound(rho0: DensityOperator, rho1: DensityOperator, m_shots: int) -> float:
    """(1/2) [Tr(rho0^{1/2} rho1^{1/2})]^M, the s = 1/2 error bound.

    Weaker than the Chernoff infimum but closed-form friendly.
    """
    check_shot_count(m_shots)
    return 0.5 * q_s(rho0, rho1, 0.5) ** m_shots


def helstrom_optimum(rho0: DensityOperator, rho1: DensityOperator, pi0: float = 0.5) -> float:
    """Minimum single-shot error (1/2)(1 - ||pi1 rho1 - pi0 rho0||_1)."""
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError(f"prior pi0={pi0} outside [0, 1]")
    return _pair_context(rho0, rho1).helstrom(pi0)


# ---------------------------------------------------------------------------
# closed-form bounds and the advantage ratio
# ---------------------------------------------------------------------------

def error_bound_3gamma(eta: float, nbar: float, m_shots: float) -> float:
    """Closed-form three-photon error bound (1/2) exp(-M sqrt(eta) / nbar).

    Valid in the high-noise, small-reflectivity regime with the supplementary
    restriction eta >> 1/nbar^2; violations warn but never fail.  Note the
    bound is independent of the signal mean photon number per mode.
    """
    # written so that NaN fails the check
    if not (0 <= eta < math.inf and nbar > 0 and 0 <= m_shots < math.inf):
        raise ValueError("need eta and m_shots finite and >= 0 and nbar > 0, "
                         f"got eta={eta}, nbar={nbar}, m_shots={m_shots}")
    if nbar < HIGH_NOISE_MIN_NBAR:
        warnings.warn(f"nbar={nbar} is not deep in the high-noise regime", RegimeWarning, stacklevel=2)
    if eta > SMALL_ETA_MAX:
        warnings.warn(f"eta={eta} is not small", RegimeWarning, stacklevel=2)
    if eta > 0 and eta * nbar * nbar < ETA_INVN2_FACTOR:
        warnings.warn(f"supplementary restriction violated: eta={eta} not >> 1/nbar^2={1/nbar**2:.2e}",
                      RegimeWarning, stacklevel=2)
    return 0.5 * math.exp(-m_shots * math.sqrt(eta) / nbar)


def error_bound_2gamma(kappa: float, n_signal: float, nbar: float, m_shots: float) -> float:
    """Two-mode Gaussian benchmark bound (1/2) exp(-M kappa N_S / nbar)."""
    if not (0 <= kappa < math.inf and 0 <= n_signal < math.inf and nbar > 0
            and 0 <= m_shots < math.inf):
        raise ValueError("need kappa, n_signal and m_shots finite and >= 0 and nbar > 0, "
                         f"got kappa={kappa}, n_signal={n_signal}, nbar={nbar}, m_shots={m_shots}")
    if not 0.0 < kappa <= 0.1:
        warnings.warn(f"kappa={kappa} outside the low-transmissivity regime", RegimeWarning, stacklevel=2)
    if n_signal > 0.1:
        warnings.warn(f"n_signal={n_signal} is not small", RegimeWarning, stacklevel=2)
    return 0.5 * math.exp(-m_shots * kappa * n_signal / nbar)


def advantage_ratio(n_signal: float) -> float:
    """Error-exponent gain of the three-photon protocol over the benchmark.

    Under the preset identifications kappa = sqrt(eta) and N_S = theta^2, the
    exponent ratio is exactly 1/N_S; it requires N_S < 1 for an advantage.
    """
    if not n_signal > 0:
        raise ValueError(f"n_signal must be positive, got {n_signal}")
    if n_signal >= 1:
        raise ValueError(f"no advantage for n_signal={n_signal} >= 1")
    return 1.0 / n_signal


# ---------------------------------------------------------------------------
# full report for one parameter point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All hypothesis-testing quantities for one parameter point."""

    params: ProtocolParams
    m_shots: int
    q_curve: tuple
    s_star: float
    q_star: float
    chernoff_exponent: float
    bhattacharyya_q: float
    helstrom_error: float
    closed_form_3g: float
    closed_form_2g: float
    kappa: float
    n_signal: float
    advantage: float

    def as_record(self) -> dict:
        """Flat mapping with the frozen serialization field names."""
        rec = {
            "s_star": self.s_star,
            "q_star": self.q_star,
            "exponent": self.chernoff_exponent,
            "q_half": self.bhattacharyya_q,
            "helstrom": self.helstrom_error,
            "p3g": self.closed_form_3g,
            "p2g": self.closed_form_2g,
            "ratio": self.advantage,
            "M": self.m_shots,
            "kappa": self.kappa,
            "n_signal": self.n_signal,
            "q_curve.s": [s for s, _ in self.q_curve],
            "q_curve.q": [q for _, q in self.q_curve],
            "regime_note": GAUSSIAN_REGIME_NOTE,
        }
        for name, value in self.params.regime_flags().as_dict().items():
            rec[f"flags.{name}"] = value
        return rec


def evaluate_point(params: ProtocolParams, m_shots: int = 1,
                   kappa: float | None = None, n_signal: float | None = None,
                   tol: float = 1e-6, pair: HypothesisPair | None = None) -> BoundReport:
    """Evaluate the full bound suite at one parameter point.

    ``kappa`` defaults to sqrt(eta) and ``n_signal`` to theta^2, the preset
    identifications connecting the protocol to the Gaussian benchmark; both
    stay independently settable.  ``pair``, if given, must have been built
    from ``params``; every quantity reads its structured form.
    """
    check_shot_count(m_shots)
    structured = pair_for(params, pair).structured
    kappa = math.sqrt(params.eta) if kappa is None else kappa
    n_signal = params.theta ** 2 if n_signal is None else n_signal

    result = _golden_section(structured.q, tol)
    q_half = dict(result.grid)[0.5]  # the pre-scan grid holds s = 1/2
    hel = structured.helstrom(0.5)
    p3g = error_bound_3gamma(params.eta, params.nbar_mean, m_shots)
    p2g = error_bound_2gamma(kappa, n_signal, params.nbar_mean, m_shots)
    ratio = advantage_ratio(n_signal) if 0.0 < n_signal < 1.0 else math.nan
    return BoundReport(
        params=params, m_shots=m_shots, q_curve=result.grid,
        s_star=result.s_star, q_star=result.q_star,
        chernoff_exponent=result.exponent, bhattacharyya_q=q_half,
        helstrom_error=hel, closed_form_3g=p3g, closed_form_2g=p2g,
        kappa=kappa, n_signal=n_signal, advantage=ratio)
