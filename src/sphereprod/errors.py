"""Exception types shared across the package.

Every domain failure raises a subclass of SphereProdError, so the CLI can
map them uniformly to an error JSON document and exit code 1.
"""


class SphereProdError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(SphereProdError):
    pass


class InvalidMatrixInput(SphereProdError):
    """A matrix JSON document is malformed."""


class SingularInput(SphereProdError):
    pass


class NotSaturated(SphereProdError):
    pass


class OverlappingSubsets(SphereProdError):
    pass


class InvalidCoefficientSequence(SphereProdError):
    pass


class DegreeTooSmall(SphereProdError):
    pass


class NotAComplex(SphereProdError):
    pass


class NotACycle(SphereProdError):
    pass


class NotSplitInclusion(SphereProdError):
    pass


class NotSL(SphereProdError):
    pass


class InvalidOrderInput(SphereProdError):
    pass


class WrongRank(InvalidOrderInput):
    pass


class NotUnital(SphereProdError):
    pass


class NotClosed(SphereProdError):
    """A pairwise product of order generators escapes the lattice."""

    def __init__(self, message, left=None, right=None, product=None):
        super().__init__(message)
        self.left = left
        self.right = right
        self.product = product


class InternalCheckFailed(SphereProdError):
    """A consistency assertion that should hold by construction failed."""
