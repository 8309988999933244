"""Exception types shared across the package.

Everything raised deliberately by confee derives from ConfeeError, so callers
can catch one type at the boundary. The CLI maps any ConfeeError to exit
code 1.
"""


class ConfeeError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteEntryError(ConfeeError):
    pass


class NegativeEntryError(ConfeeError):
    pass


class AverageExceedsOneError(ConfeeError):
    """Candidate e-values average to more than one; not a valid e-vector."""


class EmptyDatasetError(ConfeeError):
    pass


class TooFewFoldsError(ConfeeError):
    pass


class TooFewObservationsError(ConfeeError):
    pass


class KTooLargeError(ConfeeError):
    pass


class EmptyProperSetError(ConfeeError):
    pass


class SingularSystemError(ConfeeError):
    """Unregularized least squares met a rank-deficient design.

    Raised instead of silently regularizing; pass lam > 0 to proceed.
    """


class DimensionMismatchError(ConfeeError):
    pass


class EmptySupportSetError(ConfeeError):
    pass


class NonPositiveSummaryError(ConfeeError):
    pass


class OutOfRangeError(ConfeeError):
    pass


class UnboundedNormalizerError(ConfeeError):
    """The time-average harness needs a declared per-component bound."""


class InvalidScenarioError(ConfeeError):
    pass


class LabelOutOfSpaceError(ConfeeError):
    pass


class ParseError(ConfeeError):
    """A CSV cell failed to parse; carries 1-based line and column name."""

    def __init__(self, line: int, column: str, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class RaggedRowsError(ConfeeError):
    """A CSV row has the wrong number of fields; carries the 1-based line."""

    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"line {line}: expected {expected} fields, got {got}")
        self.line = line
        self.expected = expected
        self.got = got
