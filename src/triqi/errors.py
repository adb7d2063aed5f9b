"""Exception and warning types shared across the package."""


class TriqiError(Exception):
    """Base class for all package-specific errors."""


class DenseLimitError(TriqiError):
    """Raised when an operation would materialize a dense matrix above the limit."""


class TruncationError(TriqiError):
    """Raised when truncation losses (thermal tail mass, chain leakage) exceed the bound."""


class NumericalError(TriqiError):
    """Raised on numeric contract violations: non-Hermitian input, PSD failure,
    secular solve non-convergence, a ket off unit norm."""


class ResourceError(TriqiError):
    """Raised in place of a MemoryError where one point of a sweep ran out of memory."""


class RegimeWarning(UserWarning):
    """Emitted when closed-form bounds are evaluated outside their validity regime."""
