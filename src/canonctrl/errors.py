"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or channel counts of the inputs are inconsistent."""


class PartitionError(ValueError):
    """A variable partition is malformed for the requested operation."""


class HorizonError(ValueError):
    """The horizon L does not exceed the required lag bound."""


class InfeasibleRankError(ValueError):
    """A requested rank target exceeds what the matrix dimensions allow."""


class MinimalityError(ValueError):
    """A state-space model fails the controllability/observability check."""


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its draw budget."""


class NumericalDegeneracyError(ArithmeticError):
    """A computed projector violates its invariants beyond tolerance."""
