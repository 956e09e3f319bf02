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
    pass


class PrevertexCrowding(NumericalFailure):
    pass


class PoleQuery(ValidationFailure):
    pass


# eigensolve
class BasisIllConditioned(NumericalFailure):
    pass


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
