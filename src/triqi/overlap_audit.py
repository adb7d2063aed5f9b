"""Numeric audit of the root-overlap trace Tr(rho0^{1/2} rho1^{1/2}).

Three values are produced side by side and never merged into one verdict of
correctness:

* the closed-form value ``1 - sqrt(eta)/nbar``;
* the minus-branch root construction, which writes the root of the mixed
  hypothesis as the rho0 root minus the rank-one triplet term and drops
  second-order background products, evaluated term by term;
* the principal functional-calculus trace (both roots PSD), computed on the
  structured path.

The minus-branch root is not the principal root, so the last two values
legitimately differ; the audit quantifies that gap and fits its leading order
in the reflectivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import RegimeWarning, TriqiError
from .states import HypothesisPair, ProtocolParams, RegimeFlags, flat_levels, pair_for

MATCH_TOLERANCE_FACTOR = 10.0
# Half-decade ladder two to four decades below the working reflectivity, deep
# enough that the eta -> 0 asymptotics dominate the fitted slope.
GAP_FIT_LADDER = (1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2)

VERDICT_MATCHES = "matches_paper_order"
VERDICT_DEVIATES = "deviates"
VERDICT_REGIME = "regime_violated"


@dataclass(frozen=True)
class TraceTerm:
    """One line of the term-by-term product, with its order-of-magnitude tag."""

    name: str
    value: float
    order: str
    included: bool


@dataclass(frozen=True)
class SignedTrace:
    value: float
    terms: tuple[TraceTerm, ...]

    def term(self, name: str) -> TraceTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def closed_form_overlap(eta: float, nbar: float) -> float:
    """Closed-form overlap 1 - sqrt(eta)/nbar; lies in (0, 1] for sqrt(eta) <= nbar."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if nbar <= 0:
        raise ValueError(f"nbar must be positive, got {nbar}")
    return 1.0 - math.sqrt(eta) / nbar


def signed_root_overlap(params: ProtocolParams, pair: HypothesisPair | None = None) -> SignedTrace:
    """Evaluate the minus-branch root product term by term.

    The product decomposes into three lines: the background identity line
    (trace of rho0), the rank-one entangled cross term
    ``-sqrt(eta) * <Psi| rho0^{1/2} |Psi>`` evaluated exactly on the truncated
    backgrounds, and a two-level signal-block correction that is second order
    in 1/nbar and is dropped from the total, mirroring the construction that
    discards it before taking the trace.  The plus branch of the triplet term
    would push the total above 1, which is why the minus branch is the one
    taken.  Outside the validity regime the value is still computed, with a
    warning.  The backgrounds are read from ``pair``, which, if given, must
    have been built from ``params``; otherwise one is built here.
    """
    _warn_outside_regime(params)
    return _signed_root_terms(params, pair_for(params, pair).structured.factors)


def _warn_outside_regime(params: ProtocolParams) -> None:
    """The signed-root regime warning, attributed to the caller's caller."""
    flags = params.regime_flags()
    if not flags.all_hold():
        warnings.warn(
            f"signed-root construction evaluated outside its regime: {flags.as_dict()}",
            RegimeWarning, stacklevel=3)


def _signed_root_terms(params: ProtocolParams, factors) -> SignedTrace:
    """:func:`signed_root_overlap` without the regime check, for callers that
    leave the regime on purpose, on the pair's idler and background ``factors``."""
    if params.background == "flat" and min(flat_levels(params.nbar2), flat_levels(params.nbar3)) < 2:
        raise ValueError("signed-root construction needs at least two flat levels per mode")
    _, b2, b3 = factors
    c, s = math.cos(params.theta), math.sin(params.theta)
    gamma = c ** 4 * math.sqrt(b2[0] * b3[0]) + s ** 4 * math.sqrt(b2[1] * b3[1])
    beta = (b2[0] + b2[1]) * (b3[0] + b3[1])
    terms = (
        TraceTerm("background_identity", 1.0, "1", True),
        TraceTerm("entangled_cross", -math.sqrt(params.eta) * gamma, "sqrt(eta)/nbar", True),
        TraceTerm("signal_block_correction", -beta, "1/nbar^2", False),
    )
    total = sum(t.value for t in terms if t.included)
    return SignedTrace(total, terms)


def match_tolerance(params: ProtocolParams) -> float:
    """Largest signed-vs-closed-form gap the verdict counts as the paper's order."""
    return MATCH_TOLERANCE_FACTOR * (params.theta ** 2 * math.sqrt(params.eta)
                                     + 1.0 / params.nbar_mean ** 2)


def principal_overlap(params: ProtocolParams) -> float:
    """Tr(rho0^{1/2} rho1^{1/2}) with principal (PSD) roots on both sides."""
    return pair_for(params).structured.q(0.5)


@dataclass(frozen=True)
class GapFit:
    """Least-squares slope of log |principal - signed| against log eta."""

    etas: tuple[float, ...]
    gaps: tuple[float, ...]
    eta_order: float
    sign_change: bool


def gap_leading_order(params: ProtocolParams, pair: HypothesisPair | None = None) -> GapFit:
    """Fit the leading eta-order of the principal-vs-signed gap as eta -> 0.

    Evaluates both traces on a geometric eta ladder scaled off the working
    point, from one pair: only eta changes along the ladder.  ``pair``, if
    given, must have been built from ``params``; otherwise it is built here.
    A sign change of the gap inside the window would make the log-log slope
    unreliable; the fit is still reported, flagged accordingly.
    """
    etas = tuple(params.eta * f for f in sorted(GAP_FIT_LADDER))
    sp = pair_for(params, pair).structured
    # probing the eta -> 0 asymptotics leaves the regime on purpose, so the
    # rungs skip the regime warning (without touching the process-wide
    # warning filters, which concurrent sweep rows share)
    gaps = np.array([replace(sp, scale=1.0 - e, weight=e).q(0.5)
                         - _signed_root_terms(replace(params, eta=e), sp.factors).value
                         for e in etas])
    # eta = 0 rungs have log(eta) = -inf and only rounding noise for a gap
    nz = (np.array(etas) > 0) & (gaps != 0)
    sign_change = bool(np.any(gaps[nz] > 0) and np.any(gaps[nz] < 0))
    if nz.sum() >= 2:
        slope = float(np.polyfit(np.log(np.array(etas)[nz]), np.log(np.abs(gaps[nz])), 1)[0])
    else:
        slope = math.nan
    return GapFit(etas, tuple(float(g) for g in gaps), slope, sign_change)


@dataclass(frozen=True)
class TraceAudit:
    """Side-by-side record of the three overlap values and their agreement."""

    params: ProtocolParams
    analytic: float
    signed_root: float | None
    principal: float | None
    error_terms: dict
    flags: RegimeFlags
    verdict: str
    gap_fit: GapFit | None
    terms: tuple[TraceTerm, ...]
    incomplete: tuple[str, ...] = ()

    def as_record(self) -> dict:
        rec = {
            "t_paper": self.analytic,
            "t_papersign": self.signed_root,
            "t_principal": self.principal,
            "verdict": self.verdict,
        }
        for name, value in self.flags.as_dict().items():
            rec[f"flags.{name}"] = value
        for name, value in self.error_terms.items():
            rec[f"err.{name}"] = value
        for t in self.terms:
            rec[f"term.{t.name}"] = t.value
        if self.gap_fit is not None:
            rec["gap.eta_order"] = self.gap_fit.eta_order
            rec["gap.sign_change"] = self.gap_fit.sign_change
            rec["gap.etas"] = list(self.gap_fit.etas)
            rec["gap.values"] = list(self.gap_fit.gaps)
        if self.incomplete:
            rec["incomplete"] = ",".join(self.incomplete)
        return rec


def audit_overlap(params: ProtocolParams, fit_gap: bool = False,
                  pair: HypothesisPair | None = None) -> TraceAudit:
    """Assemble the full trace audit at one parameter point.

    The verdict classifies agreement orders only: ``regime_violated`` when the
    validity flags fail, ``matches_paper_order`` when the signed value agrees
    with the closed form within the stated order tolerance, ``deviates``
    otherwise.  Sub-computations that fail are marked incomplete rather than
    aborting the audit; a pair that fails to build fails both values.
    ``pair``, if given, must have been built from ``params``; otherwise one is
    built here, and every value of the audit reads that one pair.
    """
    flags = params.regime_flags()
    analytic = closed_form_overlap(params.eta, params.nbar_mean)
    incomplete = []

    signed = principal = None
    terms: tuple[TraceTerm, ...] = ()
    try:
        pair = pair_for(params, pair)
    except (TriqiError, ValueError) as exc:
        if pair is not None:  # built from other parameters: the caller's mistake
            raise
        _warn_outside_regime(params)  # the signed root warns before it reads a level
        incomplete += [f"signed_root: {exc}", f"principal: {exc}"]
    else:
        try:
            st = signed_root_overlap(params, pair)
            signed, terms = st.value, st.terms
        except (TriqiError, ValueError) as exc:
            incomplete.append(f"signed_root: {exc}")
        try:
            principal = pair.structured.q(0.5)
        except (TriqiError, ValueError) as exc:
            incomplete.append(f"principal: {exc}")

    theta, eta, nbar = params.theta, params.eta, params.nbar_mean
    error_terms = {
        "theta2_sqrt_eta": theta ** 2 * math.sqrt(eta),
        "inv_nbar2": 1.0 / nbar ** 2,
        "theta3": theta ** 3 * math.sqrt(eta),
    }
    if terms:
        error_terms["block_dropped"] = abs(next(t.value for t in terms if not t.included))

    # exact agreement (the eta = 0 collapse) counts as matching even where the
    # asymptotic regime flags fail, since nothing was approximated
    if signed is not None and abs(signed - analytic) <= 1e-12:
        verdict = VERDICT_MATCHES
    elif not flags.all_hold():
        verdict = VERDICT_REGIME
    elif signed is not None and abs(signed - analytic) <= match_tolerance(params):
        verdict = VERDICT_MATCHES
    else:
        verdict = VERDICT_DEVIATES

    fit = fit_gap and signed is not None and principal is not None
    gap = gap_leading_order(params, pair) if fit else None

    return TraceAudit(params=params, analytic=analytic,
                      signed_root=signed, principal=principal,
                      error_terms=error_terms, flags=flags, verdict=verdict,
                      gap_fit=gap, terms=terms, incomplete=tuple(incomplete))
