"""Exception types shared across the library."""


class ReachError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ReachError):
    """Operands have incompatible shapes."""


class DefectiveMatrix(ReachError):
    """Eigenvector matrix is too ill-conditioned for a similarity-based bound."""


class ModelFileError(ReachError):
    """Model file is malformed or fails validation."""
