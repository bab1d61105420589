"""Exception hierarchy shared across the package.

Every error raised by corrweave derives from :class:`CorrweaveError`, so
callers can catch package failures without masking programming errors.
The CLI maps these classes onto process exit codes.
"""


class CorrweaveError(Exception):
    """Base class for all corrweave errors."""


class ArgumentError(CorrweaveError, ValueError):
    """A caller-supplied argument is invalid (bad shape, range, or format)."""


class CapacityError(CorrweaveError):
    """A requested computation exceeds a fixed size limit."""


class NumericError(CorrweaveError):
    """A numerical routine failed or produced an unusable result."""


class ConsistencyError(NumericError):
    """A quantity violated a mathematical identity beyond numerical noise.

    These identities (nonnegativity and monotonicity of the correlation
    distances, agreement of dual summation forms) are theorems; a genuine
    violation signals a bug rather than rounding, so it is raised instead
    of being silently clamped.
    """


class StateFileError(ArgumentError):
    """A state file could not be parsed; message carries line/field context."""
