"""Exception types shared across modules.

The CLI maps these onto distinct error categories; library code raises them
directly so callers can tell a bad reference from a violated precondition.
"""

__all__ = [
    "IdemconvError",
    "MismatchedParents",
    "PreconditionError",
    "BudgetExceeded",
    "InvariantViolation",
]


class IdemconvError(Exception):
    """Base class for library errors."""


class MismatchedParents(IdemconvError):
    """Two objects that must share one parent group do not."""


class PreconditionError(IdemconvError):
    """A documented operation precondition does not hold for the input."""


class BudgetExceeded(IdemconvError):
    """A configured resource cap (e.g. free-product word budget) was hit."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantViolation(AssertionError):
    """An identity that holds by construction or by theorem failed to hold.

    A bug, not bad input: it subclasses AssertionError rather than
    IdemconvError so that it keeps the error category of the assert it
    replaces, while surviving python -O.
    """
