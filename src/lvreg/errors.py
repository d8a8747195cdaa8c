"""Exception hierarchy for registration failures and malformed inputs."""


class LvregError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(LvregError):
    """Geometry too degenerate to estimate a transform (collinear/parallel/coincident)."""


class EmptyCloud(LvregError):
    """A point cloud with no points where points are required."""


class DegenerateNeighborhood(LvregError):
    """A k-NN neighborhood whose covariance has rank 0 (all neighbors coincide)."""


class MissingNormals(LvregError):
    """A correspondence is missing source/target normals where they are required."""


class MissingResidual(LvregError):
    """A correspondence is missing its current residual where it is required."""


class DegenerateDistribution(LvregError):
    """A sample with zero spread (or too few values) for histogram bin-width selection."""


class EmptyResult(LvregError):
    """A filter retained nothing; callers may fall back to the unfiltered input."""


class TooFewCorrespondences(LvregError):
    """Fewer correspondences than the operation can work with."""


class NonFiniteInput(LvregError, ValueError):
    """A point or correspondence coordinate that is NaN, infinite, or so large
    that a squared distance could overflow to infinity."""


class PairBudgetExceeded(LvregError):
    """A correspondence set with more line-vector pairs than the pair budget allows."""


class ParseError(LvregError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UnsupportedFormat(LvregError):
    """Recognized but unsupported file format (e.g. binary PLY)."""


class IndexOutOfRange(LvregError):
    """A correspondence index referencing a point outside its cloud."""
