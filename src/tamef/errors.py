"""Exception types shared across the package."""


class TamefError(Exception):
    """Base class for package-specific failures."""


class AliasingError(TamefError, ValueError):
    """Too few boundary samples to resolve the requested coefficients."""


class EmptyProbeSetError(TamefError, ValueError):
    """A probe set without rows: no batches, or only batches without rows;
    graded.as_batch raises it."""


class SingularBlockError(TamefError):
    """The square target block of the differential is singular or not
    finite."""


class NonConvergenceError(TamefError):
    """An iteration ended before reaching tolerance.

    Carries the residual history so callers can report it, and the cause
    as data: newton.NewtonLanes.error gives the name of the lane's code,
    "budget", "non-finite", "stalled" or "slow" (None where none is given).
    """

    def __init__(self, message, history=None, cause=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.cause = cause


class RegularityError(TamefError):
    """A base point failed the regular-point test."""


class UnsupportedGradingError(TamefError):
    """The operation needs a metric-induced seminorm the space does not carry."""


class ConstructionError(TamefError):
    """No usable chart could be built; .evidence records every attempt."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = list(evidence) if evidence is not None else []


class NotIntoSubmanifoldError(TamefError):
    """A map's image leaves the constraint's zero set beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InconsistentInverseError(TamefError):
    """A supplied inverse fails its round trip beyond tolerance."""
