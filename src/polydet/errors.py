"""Exception types for polygon determinant computations.

Class names double as the error identifiers reported by the CLI, so they
deliberately omit the usual ``Error`` suffix.
"""


class ValidationFailure(ValueError):
    """Bad user input (polygon, field, config). CLI exit code 2."""


class NumericalFailure(RuntimeError):
    """A numerical scheme did not converge to tolerance. CLI exit code 3."""


# geometry
class NonConvex(ValidationFailure):
    pass


class DegenerateVertex(ValidationFailure):
    pass


class ClockwiseInput(ValidationFailure):
    pass


# scmap
class NoConvergence(NumericalFailure):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PrevertexCrowding(NumericalFailure):
    pass


class PoleQuery(ValidationFailure):
    pass


# eigensolve
class BasisIllConditioned(NumericalFailure):
    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class MissedEigenvalue(NumericalFailure):
    pass


class DegenerateEigenvalue(NumericalFailure):
    pass


# zetadet
class TailNotConverged(NumericalFailure):
    pass


# varform
class RegularizationResidual(NumericalFailure):
    pass


class CountertermMismatch(NumericalFailure):
    pass


class ContourThroughVertex(ValidationFailure):
    pass


class AngleSumViolation(ValidationFailure):
    pass


# smoothwz
class GridTooCoarse(NumericalFailure):
    pass


class MapDegenerate(ValidationFailure):
    pass
