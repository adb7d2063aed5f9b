"""Truncated multimode Fock space and its structured density operators.

Basis convention (frozen): row-major ordering with mode 0 slowest, i.e. the
basis index of occupations (n_0, ..., n_{M-1}) is
``n_0 * c_1 * ... * c_{M-1} + n_1 * c_2 * ... + n_{M-1}``
for per-mode cutoffs ``(c_0, ..., c_{M-1})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import spectral
from .errors import DenseLimitError, NumericalError

DEFAULT_DENSE_LIMIT = 4096


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
    raw = tuple(cutoffs)
    if len(raw) != modes:
        raise ValueError(f"expected {modes} cutoffs, got {len(raw)}")
    try:
        cutoffs = tuple(int(c) for c in raw)
    except (TypeError, ValueError, OverflowError):  # inf, nan, "x"
        cutoffs = ()
    # int() truncates 6.9 and parses "3": each value must equal its int
    if cutoffs != raw or any(c < 1 for c in cutoffs):
        raise ValueError(f"all cutoffs must be integers >= 1, got {raw}")
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
    """One hypothesis of a :func:`states.build_hypothesis_pair`, held without
    any array of the full dimension.

    The operator is ``R rho R^dag``: ``rho`` is ``diag(d0)`` for
    ``hypothesis`` 0 and ``scale diag(d0) + weight v v^dag`` for 1, from the
    build's structured ``pair`` (see :class:`spectral.StructuredPair`), and
    ``R`` is ``idler_rotation`` on mode 0 and the identity on every other
    mode.  Both hypotheses of one build hold the same ``pair`` and
    ``idler_rotation`` objects.
    """

    pair: spectral.StructuredPair
    idler_rotation: np.ndarray
    hypothesis: int


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

    # -- basic queries -------------------------------------------------------

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


def _diag_plus_low_rank_dense(s: DiagPlusLowRank, cutoffs: tuple[int, ...]) -> np.ndarray:
    """Dense ``R rho R^dag``, written block by block.

    ``R`` acts on mode 0 only, so the indices that share their coordinates on
    the other modes form one block of size ``c0``: ``R diag(d) R^dag``.
    rho1's rank-one term adds ``weight (R v)(R v)^dag`` on the blocks that
    ``v`` touches.  O(dim c0^2) past the zeroed matrix.
    """
    p, r = s.pair, s.idler_rotation
    dim = math.prod(cutoffs)
    # block[g, c]: the basis index of idler level c in block g
    block = np.arange(dim).reshape(cutoffs[0], -1).T
    scale = p.scale if s.hypothesis else 1.0
    d = (scale * reduce(np.kron, p.factors))[block]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[block[:, :, None], block[:, None, :]] = (r * d[:, None, :]) @ r.conj().T
    if s.hypothesis:
        v = np.zeros(dim, dtype=complex)
        v[p.v_index] = p.v_value
        touched = np.flatnonzero(v[block].any(axis=1))
        rv = (v[block[touched]] @ r.T).ravel()
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
