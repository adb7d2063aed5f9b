"""Builders for every state in the protocol.

Mode convention (frozen): mode 0 carries the retained idler photon, modes 1
and 2 carry the two signal photons sent toward the target.  The entangled
triplet is ``cos(theta)|000> - i sin(theta)|111>`` with ``theta = g*t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DenseLimitError, TruncationError
from .fock import (DEFAULT_DENSE_LIMIT, DensityOperator, DiagPlusLowRank, SpaceDescriptor,
                   build_space)
from .spectral import StructuredPair

BACKGROUND_VARIANTS = ("thermal", "flat")
IDLER_VARIANTS = ("paper_pure", "traced")

# Regime thresholds backing the qualitative conditions "nbar >> 1",
# "theta << 1", "eta << 1" and "1/nbar^2 << eta".  The last factor admits the
# weakest stated validity-grid point, eta * nbar^2 = 4.
HIGH_NOISE_MIN_NBAR = 10.0
SMALL_THETA_MAX = 0.1
SMALL_ETA_MAX = 0.1
ETA_INVN2_FACTOR = 3.0

DEFAULT_TAIL_BOUND = 1e-8
CHAIN_LEAK_TOL = 1e-9
MAX_MODE_CUTOFF = 10**7


@dataclass(frozen=True)
class RegimeFlags:
    """Validity-regime indicators attached to every parameter set."""

    high_noise: bool
    small_theta: bool
    small_eta: bool
    eta_vs_invn2: bool

    def all_hold(self) -> bool:
        return self.high_noise and self.small_theta and self.small_eta and self.eta_vs_invn2

    def as_dict(self) -> dict:
        return {
            "high_noise": self.high_noise,
            "small_theta": self.small_theta,
            "small_eta": self.small_eta,
            "eta_vs_invn2": self.eta_vs_invn2,
        }


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol parameter record.

    theta: interaction strength g*t (dimensionless, >= 0).
    eta: target reflectivity in [0, 1].
    nbar2, nbar3: background mean photon number per signal mode (> 0).
    cutoffs: explicit per-mode dimensions, or None for auto-selection.
    background: "thermal" (exact Bose-Einstein diagonal) or "flat" (uniform
        over the first round(nbar) levels).
    idler: "paper_pure" keeps the idler as the pure rotated single-photon
        superposition; "traced" uses the reduced diag(cos^2, sin^2) mixture.
    tail_bound: maximum tolerated thermal truncation tail mass.
    """

    theta: float
    eta: float
    nbar2: float
    nbar3: float
    cutoffs: tuple[int, int, int] | None = None
    background: str = "thermal"
    idler: str = "paper_pure"
    tail_bound: float = DEFAULT_TAIL_BOUND

    def __post_init__(self):
        # NaN fails every comparison, so finiteness is checked first
        if not math.isfinite(self.theta) or self.theta < 0:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not (math.isfinite(self.nbar2) and math.isfinite(self.nbar3)) \
                or self.nbar2 <= 0 or self.nbar3 <= 0:
            raise ValueError("background mean photon numbers must be finite and positive, "
                             f"got {self.nbar2}, {self.nbar3}")
        if not self.tail_bound > 0:
            raise ValueError(f"tail_bound must be positive (inf disables the check), "
                             f"got {self.tail_bound}")
        if self.background not in BACKGROUND_VARIANTS:
            raise ValueError(f"background must be one of {BACKGROUND_VARIANTS}")
        if self.idler not in IDLER_VARIANTS:
            raise ValueError(f"idler must be one of {IDLER_VARIANTS}")
        if self.cutoffs is not None:
            try:
                raw = tuple(self.cutoffs)
                cut = tuple(int(c) for c in raw)
            except (TypeError, ValueError, OverflowError):  # not a sequence, or inf, nan, "x"
                raw = cut = ()
            # int() truncates 6.9 and parses "6": each value must equal its int
            if len(cut) != 3 or any(c < 2 for c in cut) or cut != raw:
                raise ValueError(f"cutoffs must be three values >= 2, got {self.cutoffs}")
            object.__setattr__(self, "cutoffs", cut)

    @property
    def nbar_mean(self) -> float:
        return 0.5 * (self.nbar2 + self.nbar3)

    def regime_flags(self) -> RegimeFlags:
        nbar = min(self.nbar2, self.nbar3)
        return RegimeFlags(
            high_noise=nbar >= HIGH_NOISE_MIN_NBAR,
            small_theta=self.theta <= SMALL_THETA_MAX,
            small_eta=self.eta <= SMALL_ETA_MAX,
            eta_vs_invn2=self.eta * nbar * nbar >= ETA_INVN2_FACTOR,
        )

    def resolved_cutoffs(self) -> tuple[int, int, int]:
        """Explicit cutoffs, or the auto-selected ones (idler fixed at 2)."""
        if self.cutoffs is not None:
            return self.cutoffs
        if self.background == "flat":
            c1 = _capped(max(flat_levels(self.nbar2), 2), self.nbar2, "flat levels")
            c2 = _capped(max(flat_levels(self.nbar3), 2), self.nbar3, "flat levels")
        else:
            c1 = auto_cutoff(self.nbar2, self.tail_bound)
            c2 = auto_cutoff(self.nbar3, self.tail_bound)
        return (2, c1, c2)

    def space(self) -> SpaceDescriptor:
        return build_space(3, self.resolved_cutoffs())

    def with_updates(self, **kwargs) -> "ProtocolParams":
        return replace(self, **kwargs)


def params_from_mapping(values: dict[str, str]) -> ProtocolParams:
    """Parameters from :func:`textfmt.parse_key_values` text; ``cutoffs`` is comma separated."""
    known = {"theta", "eta", "nbar2", "nbar3", "cutoffs", "background", "idler", "tail_bound"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = [key for key in ("theta", "eta", "nbar2", "nbar3") if key not in values]
    if missing:
        raise ValueError(f"missing parameter keys: {missing}")
    kwargs: dict = {}
    for key in ("theta", "eta", "nbar2", "nbar3", "tail_bound"):
        if key in values:
            kwargs[key] = float(values[key])
    if "cutoffs" in values:
        kwargs["cutoffs"] = tuple(int(c) for c in values["cutoffs"].split(","))
    for key in ("background", "idler"):
        if key in values:
            kwargs[key] = values[key]
    return ProtocolParams(**kwargs)


# ---------------------------------------------------------------------------
# signal states
# ---------------------------------------------------------------------------

def triplet_amplitudes(theta: float) -> np.ndarray:
    """Amplitudes of |000> and |111>, the only nonzero entries of the
    closed-form triplet ``cos(theta)|000> - i sin(theta)|111>``."""
    return np.array([np.cos(theta), -1j * np.sin(theta)])


@dataclass(frozen=True)
class EvolvedState:
    """Exact evolution of the vacuum under the triple down-conversion coupling,
    restricted to the photon-triplet chain |nnn>."""

    theta: float
    chain_amplitudes: np.ndarray
    leakage: float

    @property
    def mean_photons(self) -> float:
        """Mean photon number of the normalized chain state; |nnn> holds n
        photons on every mode, so it is the same on all three."""
        p = np.abs(self.chain_amplitudes) ** 2
        return float(np.sum(p * np.arange(p.size)) / np.sum(p))

    def support_deviation(self) -> float:
        """Amplitude deviation from the closed form on its span {|000>, |111>}."""
        c = self.chain_amplitudes
        return float(np.hypot(abs(c[0] - np.cos(self.theta)),
                              abs(c[1] + 1j * np.sin(self.theta))))

    def full_deviation(self) -> float:
        """Norm deviation over the whole chain, including multi-photon leak."""
        ref = np.zeros_like(self.chain_amplitudes)
        ref[:2] = triplet_amplitudes(self.theta)
        return float(np.linalg.norm(self.chain_amplitudes - ref))


def evolve_exact(theta: float, chain_cutoff: int) -> EvolvedState:
    """Evolve |000> under the triple-mode coupling, exactly on the chain.

    On the chain {|nnn>} the coupling is tridiagonal with matrix element
    ``(n+1)^(3/2)`` between |nnn> and the next triplet level; the propagator
    comes from the eigendecomposition of that small real symmetric matrix.
    The population stranded at the top chain level is reported as leakage and
    must stay below ``CHAIN_LEAK_TOL`` (raise the cutoff otherwise).  The
    chain matrix is the only dense array, so the chain cutoff may not exceed
    the dense limit.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if chain_cutoff < 4:
        raise ValueError(f"chain cutoff must be >= 4, got {chain_cutoff}")
    if chain_cutoff > DEFAULT_DENSE_LIMIT:
        raise DenseLimitError(
            f"chain cutoff {chain_cutoff} needs a chain matrix of dimension {chain_cutoff} "
            f"> dense limit {DEFAULT_DENSE_LIMIT}")
    k = np.arange(1, chain_cutoff)
    h = np.zeros((chain_cutoff, chain_cutoff))
    h[k - 1, k] = h[k, k - 1] = k ** 1.5
    evals, evecs = np.linalg.eigh(h)
    amps = evecs @ (np.exp(-1j * theta * evals) * evecs[0, :].conj())
    leakage = float(np.abs(amps[-1]) ** 2)
    if not leakage <= CHAIN_LEAK_TOL:
        raise TruncationError(
            f"chain leakage {leakage:.3e} above {CHAIN_LEAK_TOL:.1e} at cutoff {chain_cutoff}; "
            "raise the chain cutoff")
    return EvolvedState(theta, amps, leakage)


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------

def thermal_tail_mass(nbar: float, cutoff: int) -> float:
    """Pre-normalization mass of the truncated thermal tail, (nbar/(nbar+1))^cutoff."""
    return float((nbar / (nbar + 1.0)) ** cutoff)


def thermal_probs(nbar: float, cutoff: int) -> np.ndarray:
    """Renormalized thermal occupation probabilities p_n ~ nbar^n/(nbar+1)^(n+1)."""
    if nbar <= 0:
        raise ValueError(f"nbar must be positive, got {nbar}")
    n = np.arange(cutoff)
    logp = n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0)
    p = np.exp(logp)
    return p / p.sum()


def thermal_marginal(nbar: float, cutoff: int, tail_bound: float) -> np.ndarray:
    """:func:`thermal_probs`, once the truncated tail is checked against the bound."""
    tail = thermal_tail_mass(nbar, cutoff)
    if tail > tail_bound:
        raise TruncationError(
            f"thermal tail mass {tail:.3e} above bound {tail_bound:.1e}: "
            f"cutoff {cutoff} too small for nbar={nbar}")
    return thermal_probs(nbar, cutoff)


def auto_cutoff(nbar: float, tail_bound: float = DEFAULT_TAIL_BOUND) -> int:
    """Smallest cutoff whose thermal tail mass is below the bound."""
    if nbar <= 0:
        raise ValueError(f"nbar must be positive, got {nbar}")
    # NaN fails every comparison, so it is rejected here too
    if not tail_bound > 0:
        raise ValueError(f"tail_bound must be positive (inf disables the check), got {tail_bound}")
    if tail_bound >= 1.0:  # inf included
        return 2
    q = nbar / (nbar + 1.0)
    if q == 1.0:  # log(q) rounds to 0: no finite cutoff bounds the tail
        raise TruncationError(f"nbar={nbar} needs more levels than the per-mode cap "
                              f"{MAX_MODE_CUTOFF}")
    k = max(int(math.floor(math.log(tail_bound) / math.log(q))) + 1, 2)
    while thermal_tail_mass(nbar, k) >= tail_bound:  # absorb log rounding
        k += 1
    return _capped(k, nbar, "auto cutoff")


def _capped(cutoff: int, nbar: float, what: str) -> int:
    """An auto-selected per-mode cutoff, once it is checked against the cap."""
    if cutoff > MAX_MODE_CUTOFF:
        raise TruncationError(
            f"{what} {cutoff} for nbar={nbar} exceeds the per-mode cap {MAX_MODE_CUTOFF}")
    return cutoff


def flat_levels(nbar: float) -> int:
    """Number of uniformly occupied levels in the flat background, round(nbar)."""
    return max(int(math.floor(nbar + 0.5)), 1)


def flat_probs(nbar: float, cutoff: int) -> np.ndarray:
    k = flat_levels(nbar)
    if cutoff < k:
        raise ValueError(f"flat background needs cutoff >= round(nbar) = {k}, got {cutoff}")
    p = np.zeros(cutoff)
    p[:k] = 1.0 / k
    return p


def background_marginals(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the background on the two signal modes, whose product it is.

    thermal variant: truncated thermal occupations, each within the tail bound.
    flat variant: uniform over the first round(nbar) levels per mode, the
    trace-one reading of the high-noise identity-per-nbar approximation.
    """
    _, c1, c2 = params.resolved_cutoffs()
    if params.background == "flat":
        return flat_probs(params.nbar2, c1), flat_probs(params.nbar3, c2)
    return (thermal_marginal(params.nbar2, c1, params.tail_bound),
            thermal_marginal(params.nbar3, c2, params.tail_bound))


# ---------------------------------------------------------------------------
# hypothesis operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisPair:
    """The two discrimination hypotheses plus the parameters that built them.

    Both are DiagPlusLowRank operators over rho0's eigenbasis that hold one
    :class:`StructuredPair` and one idler rotation.  ``structured``, that
    pair, is the pair of hypotheses in that basis without any array of the
    full dimension, and every bound and every value of the overlap audit
    read it.
    """

    params: ProtocolParams
    rho0: DensityOperator
    rho1: DensityOperator

    @property
    def structured(self) -> StructuredPair:
        return self.rho1.structure.pair


def build_hypothesis_pair(params: ProtocolParams) -> HypothesisPair:
    """Build both hypotheses in rho0's eigenbasis from per-mode eigensystems,
    in O(cutoff).

    rho0 is the idler times the two background marginals.  The pure idler's
    eigensystem is that of its ``c0 x c0`` projector; the traced idler and the
    backgrounds are diagonal already, so the traced idler's rotation is the
    identity.  The
    triplet ``cos(theta)|000> - i sin(theta)|111>`` has the entry
    ``conj(R[n, k]) * amplitude(|nnn>)`` at ``(k, n, n)`` in the rotated basis,
    for every idler eigenvector ``k`` and ``n`` in {0, 1}; in that order the
    flat indices ascend.
    """
    space = params.space()
    c0 = space.cutoffs[0]
    amplitudes = triplet_amplitudes(params.theta)
    if params.idler == "paper_pure":
        idler = np.zeros(c0, dtype=complex)
        idler[:2] = amplitudes
        idler_eigenvalues, idler_rotation = np.linalg.eigh(np.outer(idler, idler.conj()))
    else:
        idler_eigenvalues = np.zeros(c0)
        idler_eigenvalues[:2] = np.cos(params.theta) ** 2, np.sin(params.theta) ** 2
        idler_rotation = np.eye(c0)
    idler_rotation.setflags(write=False)
    factors = (idler_eigenvalues, *background_marginals(params))
    # (k, n) for every idler eigenvector k and n in {0, 1}, k slowest
    k, n = np.arange(c0).repeat(2), np.array((0, 1) * c0)
    index = np.ravel_multi_index((k, n, n), space.cutoffs)
    value = (idler_rotation[:2].conj().T * amplitudes).ravel()
    keep = np.flatnonzero(value)
    # rho1 = (1 - eta) rho0 + eta |Psi><Psi|, in rho0's eigenbasis
    sp = StructuredPair(factors, 1.0 - params.eta, params.eta, index[keep], value[keep])
    rho0, rho1 = (DensityOperator(space, DiagPlusLowRank(sp, idler_rotation, hypothesis))
                  for hypothesis in (0, 1))
    return HypothesisPair(params, rho0, rho1)


def pair_for(params: ProtocolParams, pair: HypothesisPair | None = None) -> HypothesisPair:
    """``pair``, once checked to have been built from ``params``, or a new pair of ``params``."""
    if pair is None:
        return build_hypothesis_pair(params)
    if pair.params != params:
        raise ValueError("pair was built from other parameters than params")
    return pair
