"""Exception hierarchy shared across the package."""


class StableCutError(Exception):
    """Base class for all stablecut errors."""


class ValidationError(StableCutError, ValueError):
    """Input violates a structural invariant (asymmetry, negative weight, ...)."""


class DimensionError(ValidationError):
    """Vector/matrix sizes do not match the graph."""


class SizeLimitError(StableCutError):
    """Instance exceeds the exhaustive-enumeration limit."""
