"""Named parameter presets and the built-in reproduction tables."""

from __future__ import annotations

import math

from . import bounds
from .overlap_audit import audit_overlap, match_tolerance
from .states import ProtocolParams, evolve_exact
from .sweep import SweepSpec, SweepTable

# Small-cutoff point used for dense cross-checks everywhere; the relaxed tail
# bound acknowledges the deliberately tiny truncation (renormalized thermal).
GOLDEN_POINT = ProtocolParams(theta=0.1, eta=0.05, nbar2=3.0, nbar3=3.0,
                              cutoffs=(2, 6, 6), background="thermal",
                              idler="paper_pure", tail_bound=math.inf)
GOLDEN_POINT_TRACED = GOLDEN_POINT.with_updates(idler="traced")

# High-noise flat-background working point for the trace audit.
AUDIT_POINT = ProtocolParams(theta=0.01, eta=0.01, nbar2=50.0, nbar3=50.0,
                             background="flat")
AUDIT_POINT_SMALL = AUDIT_POINT.with_updates(nbar2=20.0, nbar3=20.0)

# Pairs with total dimension <= 1000, where the dense eigendecomposition path
# can cross-check the structured one.
DENSE_CHECK_POINTS = (
    GOLDEN_POINT,
    GOLDEN_POINT_TRACED,
    AUDIT_POINT_SMALL,
    AUDIT_POINT_SMALL.with_updates(idler="traced"),
    ProtocolParams(theta=0.05, eta=0.02, nbar2=5.0, nbar3=5.0, cutoffs=(2, 16, 16),
                   background="thermal", tail_bound=math.inf),
)


def golden_sweep_spec(workers: int = 1) -> SweepSpec:
    """The frozen determinism sweep: small theta over both backgrounds."""
    fixed = ProtocolParams(theta=0.01, eta=1e-3, nbar2=20.0, nbar3=20.0,
                           background="flat")
    axes = (
        ("eta", (1e-3, 1e-2)),
        ("nbar", (20.0, 50.0)),
        ("background", ("thermal", "flat")),
    )
    outputs = ("exponent", "q_half", "helstrom", "t_papersign", "t_principal", "ratio")
    return SweepSpec(axes=axes, fixed=fixed, outputs=outputs, workers=workers)


# ---------------------------------------------------------------------------
# reproduction tables for the CLI
# ---------------------------------------------------------------------------

def reproduce_factor100() -> SweepTable:
    """Exponent-ratio table under the preset identifications kappa = sqrt(eta),
    N_S = theta^2, at eta = 0.01, nbar = 100 and 10,000 shots; the ratio column
    is exactly 1/N_S."""
    columns = ("n_signal", "kappa", "nbar", "M", "p3g", "p2g", "ratio")
    rows = []
    m_shots, eta, nbar = 10_000, 0.01, 100.0
    kappa = math.sqrt(eta)
    for n_signal in (0.01, 0.1):
        p3g = bounds.error_bound_3gamma(eta, nbar, m_shots)
        p2g = bounds.error_bound_2gamma(kappa, n_signal, nbar, m_shots)
        rows.append((n_signal, kappa, nbar, m_shots, p3g, p2g,
                     bounds.advantage_ratio(n_signal)))
    return SweepTable(columns, tuple(rows))


def reproduce_appendix_regime() -> SweepTable:
    """Trace audit over the validity-regime grid at theta = 0.01, flat background."""
    columns = ("eta", "nbar", "t_paper", "t_papersign", "t_principal",
               "match_tol", "verdict")
    rows = []
    for nbar in (20.0, 50.0):
        for eta in (1e-2, 4e-2):
            params = ProtocolParams(theta=0.01, eta=eta, nbar2=nbar, nbar3=nbar,
                                    background="flat")
            a = audit_overlap(params)
            rows.append((eta, nbar, a.analytic, a.signed_root, a.principal,
                         match_tolerance(params), a.verdict))
    return SweepTable(columns, tuple(rows))


def reproduce_evolution_order() -> SweepTable:
    """Deviation of the exact chain evolution (chain cutoff 24) from the closed form.

    The closed form lives on span{|000>, |111>}; the deviation restricted to
    that support shrinks as theta^3, while the full-chain deviation is
    dominated by the second-order leak into the third triplet level.
    """
    columns = ("theta", "support_dev", "support_dev_over_theta3",
               "full_dev", "full_dev_over_theta2", "leakage", "mean_photons")
    rows = []
    for theta in (0.2, 0.1, 0.05):
        ev = evolve_exact(theta, 24)
        rows.append((theta, ev.support_deviation(),
                     ev.support_deviation() / theta ** 3,
                     ev.full_deviation(), ev.full_deviation() / theta ** 2,
                     ev.leakage, ev.mean_photons))
    return SweepTable(columns, tuple(rows))


REPRODUCTIONS = {
    "factor100": reproduce_factor100,
    "appendix-regime": reproduce_appendix_regime,
    "evolution-order": reproduce_evolution_order,
}
