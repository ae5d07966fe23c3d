"""Exception hierarchy shared across the toolkit."""


class FxStackError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(FxStackError):
    """CSV header or column layout does not match the documented contract."""


class OrderingError(FxStackError):
    """Timestamps are not strictly increasing."""


class ParameterError(FxStackError):
    """An argument violates its documented precondition."""


class InsufficientDataError(FxStackError):
    """Not enough rows to perform the requested operation."""


class EmptyFrameError(FxStackError):
    """An operation removed or selected every row."""


class SplitError(FxStackError):
    """A split spec was built for a different number of rows than the
    frame it is applied to."""


class SpecError(FxStackError):
    """An indicator or config spec is malformed (e.g. duplicate names)."""


class DegenerateFitError(FxStackError):
    """A model fit is singular or failed to converge."""


class SearchError(FxStackError):
    """Every candidate in a model search failed."""


class TrainingError(FxStackError):
    """Training diverged (non-finite loss)."""
