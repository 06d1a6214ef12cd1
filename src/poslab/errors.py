"""Exception types shared across the package."""


class PoslabError(Exception):
    """Base class for all poslab-specific errors."""


class InsufficientMomentsError(PoslabError):
    """Raised when an operation needs more moments (or more orders) than available."""


class DegenerateMeasureError(PoslabError):
    """A Hankel determinant vanished or went negative where strict positivity was required.

    ``order`` is the first offending Hankel order.
    """

    def __init__(self, order: int, message: str):
        super().__init__(message)
        self.order = order


class RecurrenceError(PoslabError):
    """A polynomial family does not satisfy a consistent three-term recurrence."""


class SchemaError(PoslabError):
    """An input file or JSON document does not match the expected schema.

    Messages always name the offending field (and the file path when read
    through the CLI).
    """


class ReportLimitError(PoslabError):
    """A computed value has an integer past Python's int-string limit, so it cannot be written."""
