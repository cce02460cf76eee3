"""Exception types shared across the package."""


class BlockRangeError(Exception):
    """Base class for every error raised by this package."""


class NonConvergence(BlockRangeError):
    """Eigensolver failed, or an eigenpair residual exceeded its tolerance."""


class NotUnit(BlockRangeError):
    """A vector that must have unit norm does not."""


class EmptyInput(BlockRangeError):
    """An operation received an empty point set or block list."""


class NotNested(BlockRangeError):
    """A family of clouds failed the decreasing-nesting precondition."""


class EmptyIntersection(BlockRangeError):
    """Two regions, or a nested family of clouds, have no common point."""


class NoConvergence(BlockRangeError):
    """Tail doubling hit the index cap before the clouds stabilised."""


class ScanExhausted(BlockRangeError):
    """No block close enough to an extreme point was found within the scan cap.

    Carries the refinement level, the bucket index and the offending point so
    callers can report which part of the boundary failed to recur.
    """

    def __init__(self, level: int, bucket: int, point: complex, cap: int):
        self.level = level
        self.bucket = bucket
        self.point = point
        self.cap = cap
        super().__init__(
            f"no block within reach of extreme point {point:.6g} "
            f"(level {level}, bucket {bucket}, scanned {cap} blocks)"
        )


class DegenerateGeometry(BlockRangeError):
    """Angle injectivity could not be certified after translation."""


class InconsistentResult(BlockRangeError):
    """Two routes that must agree disagreed by far more than tolerance."""


class ParseError(BlockRangeError):
    """Operator spec document is not syntactically valid."""


class ValidationError(BlockRangeError, ValueError):
    """An operator document or a parameter violates the schema or an invariant."""
