"""Truncated multimode Fock space: basis indexing, kets, structured density
operators and partial traces.

Basis convention (frozen): row-major ordering with mode 0 slowest, i.e. the
basis index of occupations (n_0, ..., n_{M-1}) is
``n_0 * c_1 * ... * c_{M-1} + n_1 * c_2 * ... + n_{M-1}``
for per-mode cutoffs ``(c_0, ..., c_{M-1})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import spectral
from .errors import DenseLimitError, NumericalError

DEFAULT_DENSE_LIMIT = 4096

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class SpaceDescriptor:
    """Tensor product of truncated single-mode Fock spaces.

    Mode m holds levels 0 .. cutoffs[m]-1.  ``dense_limit`` caps the dimension
    at which dense matrices may be materialized; structured representations
    are exempt.
    """

    cutoffs: tuple[int, ...]
    dense_limit: int = DEFAULT_DENSE_LIMIT

    @property
    def modes(self) -> int:
        return len(self.cutoffs)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.cutoffs))

    def index_of(self, occupations) -> int:
        """Basis index of an occupation tuple (row-major, mode 0 slowest)."""
        if len(occupations) != self.modes:
            raise ValueError(f"expected {self.modes} occupation numbers, got {len(occupations)}")
        return int(np.ravel_multi_index(tuple(occupations), self.cutoffs))

    def occupations_of(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index."""
        return tuple(int(n) for n in np.unravel_index(index, self.cutoffs))

    def mode_occupations(self, mode: int) -> np.ndarray:
        """Occupation number on ``mode`` for every basis index, as a vector."""
        self._check_mode(mode)
        grid = np.unravel_index(np.arange(self.total_dim), self.cutoffs)
        return grid[mode].astype(np.int64)

    def subspace(self, keep: tuple[int, ...]) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(self.cutoffs[m] for m in keep), self.dense_limit)

    def require_dense(self, what: str = "dense operation") -> None:
        if self.total_dim > self.dense_limit:
            raise DenseLimitError(
                f"{what} needs dimension {self.total_dim} > dense limit {self.dense_limit}; "
                "use a structured path or raise dense_limit"
            )

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.modes:
            raise ValueError(f"mode {mode} out of range for {self.modes}-mode space")


def build_space(modes: int, cutoffs, dense_limit: int = DEFAULT_DENSE_LIMIT) -> SpaceDescriptor:
    """Validated construction of a SpaceDescriptor."""
    if modes < 1:
        raise ValueError("need at least one mode")
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != modes:
        raise ValueError(f"expected {modes} cutoffs, got {len(cutoffs)}")
    if any(c < 1 for c in cutoffs):
        raise ValueError(f"all cutoffs must be >= 1, got {cutoffs}")
    return SpaceDescriptor(cutoffs, int(dense_limit))


@dataclass(frozen=True)
class Ket:
    """Unit-norm complex amplitude vector over a truncated Fock basis."""

    space: SpaceDescriptor
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.total_dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({self.space.total_dim},)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalError(f"ket norm {norm} deviates from 1 by more than {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, space: SpaceDescriptor, amplitudes, normalize: bool = False) -> "Ket":
        amps = np.asarray(amplitudes, dtype=complex)
        if normalize:
            norm = np.linalg.norm(amps)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        return cls(space, amps)

    @classmethod
    def basis_state(cls, space: SpaceDescriptor, occupations) -> "Ket":
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[space.index_of(occupations)] = 1.0
        return cls(space, amps)


def tensor_ket(factors, space: SpaceDescriptor | None = None) -> Ket:
    """Tensor product of kets; factor spaces concatenate in order (mode 0 slowest).

    When a target ``space`` is given, the concatenated factor cutoffs must
    match it exactly.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    cutoffs = sum((f.space.cutoffs for f in factors), ())
    if space is not None and space.cutoffs != cutoffs:
        raise ValueError(f"factor cutoffs {cutoffs} do not match the target space {space.cutoffs}")
    dense_limit = max(f.space.dense_limit for f in factors)
    amps = reduce(np.kron, [f.amplitudes for f in factors])
    return Ket(space or SpaceDescriptor(cutoffs, dense_limit), amps)


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    """Explicit Hermitian matrix."""
    matrix: np.ndarray


@dataclass(frozen=True)
class Diagonal:
    """Diagonal operator in the Fock basis; ``probs`` holds the real diagonal."""
    probs: np.ndarray


@dataclass(frozen=True)
class DiagPlusLowRank:
    """Operator ``R (scale diag(d0) + weight v v^dag) R^dag`` of a structured
    pair ``pair``: its diagonal ``d0 = kron(*pair.factors)``, ``scale``,
    ``weight`` and sparse ``v`` (see :class:`spectral.StructuredPair`), held
    without any array of the full dimension.

    ``mode_rotations`` maps the structure's own basis back to the Fock basis,
    one unitary per mode (None meaning identity on that mode); ``R`` is their
    kron.
    """

    pair: spectral.StructuredPair
    mode_rotations: tuple


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD unit-trace operator with a structural tag."""

    space: SpaceDescriptor
    structure: object

    # -- constructors -------------------------------------------------------

    @classmethod
    def dense(cls, space: SpaceDescriptor, matrix) -> "DensityOperator":
        space.require_dense("dense density operator")
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (space.total_dim, space.total_dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {space.total_dim}")
        mat.setflags(write=False)
        return cls(space, Dense(mat))

    @classmethod
    def diagonal(cls, space: SpaceDescriptor, probs) -> "DensityOperator":
        p = np.asarray(probs, dtype=float)
        if p.shape != (space.total_dim,):
            raise ValueError(f"diagonal has shape {p.shape}, expected ({space.total_dim},)")
        p.setflags(write=False)
        return cls(space, Diagonal(p))

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityOperator":
        ket.space.require_dense("pure-state projector")
        mat = np.outer(ket.amplitudes, ket.amplitudes.conj())
        return cls.dense(ket.space, mat)

    @classmethod
    def diag_plus_low_rank(cls, space: SpaceDescriptor, pair: spectral.StructuredPair,
                           mode_rotations=None) -> "DensityOperator":
        if pair.dim != space.total_dim:
            raise ValueError(f"pair dimension {pair.dim} does not match the space "
                             f"({space.total_dim})")
        rotations = (None,) * space.modes if mode_rotations is None else tuple(mode_rotations)
        if len(rotations) != space.modes:
            raise ValueError(f"expected {space.modes} mode rotations, got {len(rotations)}")
        for rot in rotations:
            if rot is not None:
                rot.setflags(write=False)
        return cls(space, DiagPlusLowRank(pair, rotations))

    # -- basic queries -------------------------------------------------------

    def trace(self) -> float:
        s = self.structure
        if isinstance(s, Dense):
            return float(np.real(np.trace(s.matrix)))
        if isinstance(s, Diagonal):
            return float(np.sum(s.probs))
        if isinstance(s, DiagPlusLowRank):
            p = s.pair
            return p.scale * math.prod(float(f.sum()) for f in p.factors) \
                + p.weight * float(np.sum(np.abs(p.v_value) ** 2))
        raise TypeError(f"unknown structure {type(s)}")

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix in the Fock basis (dense-limit guarded).

        A ``Dense`` operator returns its stored matrix itself, read-only, not a
        copy; every other structure returns a new array.
        """
        self.space.require_dense("materialization")
        s = self.structure
        if isinstance(s, Dense):
            return s.matrix
        if isinstance(s, Diagonal):
            return np.diag(s.probs.astype(complex))
        if isinstance(s, DiagPlusLowRank):
            return _diag_plus_low_rank_dense(s, self.space.cutoffs)
        raise TypeError(f"unknown structure {type(s)}")

    @cached_property
    def nonzero_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """``spectral.nonzero_pattern`` of the dense matrix, scanned once per
        operator and read-only; every dense split of the operator reads it.
        It holds O(nonzero entries) indices, not dim^2."""
        pattern = spectral.nonzero_pattern(self.to_dense())
        for arr in pattern:
            arr.setflags(write=False)
        return pattern

    def validate(self) -> None:
        """Check the Hermitian / PSD / trace invariants at the standard tolerances."""
        s = self.structure
        if isinstance(s, Diagonal):
            self._check_diag_psd(s.probs)
        elif isinstance(s, DiagPlusLowRank):
            # the kron's least entry over its largest is its worst factor's
            for f in s.pair.factors:
                self._check_diag_psd(s.pair.scale * f)
            if s.pair.weight < 0:
                raise NumericalError("negative low-rank weight breaks positive semidefiniteness")
        else:
            mat = self.to_dense()
            rows, cols = self.nonzero_pattern
            # every other entry of mat and of its adjoint is zero
            herm = np.max(np.abs(mat[rows, cols] - mat[cols, rows].conj()), initial=0.0)
            if herm > HERMITIAN_TOL:
                raise NumericalError(f"Hermiticity violation {herm} > {HERMITIAN_TOL}")
            eigs = spectral.eigvalsh(mat, self.nonzero_pattern)
            top = max(eigs.max(), 0.0)
            if eigs.min() < -PSD_TOL * max(top, 1e-300):
                raise NumericalError(f"negative eigenvalue {eigs.min()} below PSD tolerance")
        if abs(self.trace() - 1.0) > TRACE_TOL:
            raise NumericalError(f"trace {self.trace()} deviates from 1 beyond {TRACE_TOL}")

    @staticmethod
    def _check_diag_psd(diag: np.ndarray) -> None:
        top = max(float(np.max(diag, initial=0.0)), 0.0)
        if float(np.min(diag, initial=0.0)) < -PSD_TOL * max(top, 1e-300):
            raise NumericalError("negative diagonal entry below PSD tolerance")


def _diag_plus_low_rank_dense(s: DiagPlusLowRank, cutoffs: tuple[int, ...]) -> np.ndarray:
    """Dense ``R (scale diag(d0) + weight v v^dag) R^dag``, written block by
    block.

    ``R`` acts only on the rotated modes, so the indices that share their
    coordinates on the other modes form one block of size ``C``, the product
    of the rotated cutoffs: ``Rr diag(d) Rr^dag`` with ``Rr`` the kron of the
    rotated modes' unitaries.  The rank-one term adds ``weight (R v)(R v)^dag``
    on the blocks that ``v`` touches.  O(dim C^2) past the zeroed matrix.
    """
    p = s.pair
    dim = math.prod(cutoffs)
    rotated = [m for m, rot in enumerate(s.mode_rotations) if rot is not None]
    fixed = [m for m, rot in enumerate(s.mode_rotations) if rot is None]
    rr = reduce(np.kron, [s.mode_rotations[m] for m in rotated], np.eye(1))
    # block[g, c]: the basis index at position c of block g
    block = np.arange(dim).reshape(cutoffs).transpose(fixed + rotated).reshape(-1, len(rr))
    d = (p.scale * reduce(np.kron, p.factors))[block]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[block[:, :, None], block[:, None, :]] = (rr * d[:, None, :]) @ rr.conj().T
    v = np.zeros(dim, dtype=complex)
    v[p.v_index] = p.v_value
    touched = np.flatnonzero(v[block].any(axis=1))
    rv = (v[block[touched]] @ rr.T).ravel()
    support = block[touched].ravel()
    mat[np.ix_(support, support)] += p.weight * np.outer(rv, rv.conj())
    return mat


def as_diag_plus_low_rank(rho: DensityOperator) -> DensityOperator:
    """Re-express a compatible operator as DiagPlusLowRank.

    A DiagPlusLowRank operator, such as either hypothesis of a built pair,
    returns as it is.  A Diagonal one becomes a single flat factor at scale 1,
    with no rank-one term and no rotation.
    """
    s = rho.structure
    if isinstance(s, DiagPlusLowRank):
        return rho
    if not isinstance(s, Diagonal):
        raise NumericalError(f"cannot convert structure {type(s).__name__} to DiagPlusLowRank")
    pair = spectral.StructuredPair((s.probs,), 1.0, 0.0, np.zeros(0, dtype=int),
                                   np.zeros(0, dtype=complex))
    return DensityOperator.diag_plus_low_rank(rho.space, pair)


def same_rotations(a, b) -> bool:
    """True when two DiagPlusLowRank structures share the same basis rotations."""
    if len(a.mode_rotations) != len(b.mode_rotations):
        return False
    for x, y in zip(a.mode_rotations, b.mode_rotations):
        if x is None or y is None:
            if x is not y:
                return False
        elif x.shape != y.shape or np.max(np.abs(x - y)) > ROTATION_TOL:
            return False
    return True


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the kept modes (ascending order preserved)."""
    keep = tuple(sorted(set(int(m) for m in keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(m < 0 or m >= rho.space.modes for m in keep):
        raise ValueError(f"keep modes {keep} out of range for {rho.space.modes}-mode space")
    if len(keep) == rho.space.modes:
        return rho

    s = rho.structure
    sub = rho.space.subspace(keep)
    traced = tuple(m for m in range(rho.space.modes) if m not in keep)

    if isinstance(s, Diagonal):
        probs = s.probs.reshape(rho.space.cutoffs).sum(axis=traced).reshape(-1)
        return DensityOperator.diagonal(sub, probs)

    # Dense and DiagPlusLowRank go through materialization.
    mat = rho.to_dense()
    tensor = mat.reshape(rho.space.cutoffs + rho.space.cutoffs)
    modes_left = rho.space.modes
    for m in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + modes_left)
        modes_left -= 1
    red = tensor.reshape(sub.total_dim, sub.total_dim)
    return DensityOperator.dense(sub, red)
