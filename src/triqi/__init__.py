"""Numerical error-bound analysis for three-photon entangled-state illumination.

Builds the protocol states in truncated Fock spaces, computes discrimination
quantities (Q_s, Chernoff exponent, Bhattacharyya, Helstrom) from first
principles on dense and structured paths, and audits the closed-form
root-overlap result against the principal-root value.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, advantage_ratio, bhattacharyya_bound, chernoff,
                     error_bound_2gamma, error_bound_3gamma, evaluate_point,
                     helstrom_optimum, q_s)
from .errors import (DenseLimitError, NumericalError, RegimeWarning, ResourceError,
                     TriqiError, TruncationError)
from .fock import DensityOperator, SpaceDescriptor, build_space
from .overlap_audit import (TraceAudit, audit_overlap, closed_form_overlap, principal_overlap,
                            signed_root_overlap)
from .states import (HypothesisPair, ProtocolParams, background_marginals,
                     build_hypothesis_pair, evolve_exact)
from .sweep import SweepSpec, SweepTable, run_sweep

__all__ = [
    "BoundReport", "DenseLimitError", "DensityOperator", "HypothesisPair",
    "NumericalError", "ProtocolParams", "RegimeWarning", "ResourceError",
    "SpaceDescriptor", "SweepSpec", "SweepTable", "TraceAudit", "TriqiError",
    "TruncationError", "advantage_ratio", "audit_overlap", "background_marginals",
    "bhattacharyya_bound", "build_hypothesis_pair", "build_space", "chernoff",
    "closed_form_overlap", "error_bound_2gamma", "error_bound_3gamma",
    "evaluate_point", "evolve_exact", "helstrom_optimum", "principal_overlap", "q_s",
    "run_sweep", "signed_root_overlap",
]
