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
    """A configured resource cap was hit: a free-product base measure or
    power with more distinct words than the word budget.  Raised before the
    words past the cap are kept; no partial result is returned."""


class InvariantViolation(AssertionError):
    """An identity that holds by construction or by theorem failed to hold.

    A bug, not bad input: it subclasses AssertionError rather than
    IdemconvError so that it keeps the error category of the assert it
    replaces, while surviving python -O.
    """
