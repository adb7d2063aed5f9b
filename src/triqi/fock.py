"""Truncated multimode Fock space and its structured density operators.

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
        return math.prod(self.cutoffs)

    def require_dense(self, what: str = "dense operation") -> None:
        if self.total_dim > self.dense_limit:
            raise DenseLimitError(
                f"{what} needs dimension {self.total_dim} > dense limit {self.dense_limit}; "
                "use a structured path or raise dense_limit"
            )


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


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    """Explicit Hermitian matrix."""
    matrix: np.ndarray


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
        if isinstance(s, DiagPlusLowRank):
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
    """A DiagPlusLowRank operator, such as either hypothesis of a built pair,
    as it is; any other structure raises NumericalError."""
    s = rho.structure
    if not isinstance(s, DiagPlusLowRank):
        raise NumericalError(f"cannot convert structure {type(s).__name__} to DiagPlusLowRank")
    return rho
