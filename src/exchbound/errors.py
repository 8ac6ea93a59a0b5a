"""Semantic exception hierarchy shared across the package.

Every error a caller might want to catch has its own class; public
functions never raise a bare ValueError for contract violations.
"""


class ExchboundError(Exception):
    """Base class for all package errors."""


class InvalidModel(ExchboundError, ValueError):
    """Model parameters violate a construction invariant."""


class UnsupportedModel(ExchboundError):
    """The requested computation has no exact path for this model."""


class KTooLarge(ExchboundError, ValueError):
    """Joint-law dimension exceeds the enumeration guard."""


class MTooLarge(ExchboundError, ValueError):
    """Sample count exceeds the exact-convolution guard."""


class DomainError(ExchboundError, ValueError):
    """An argument lies outside the stated domain of the operation."""


class InvalidT(DomainError):
    """Deviation t must be finite and strictly positive."""


class InvalidH(DomainError):
    """Exponential-moment parameter h must be finite and strictly positive."""


class InvalidDelta(DomainError):
    """Failure probability delta must lie in (0, 1]."""


class MeanOutOfRange(DomainError):
    """A stated mean lies outside its stated range [a, b]."""


class OutOfValidityRange(ExchboundError, ValueError):
    """t lies outside the window in which the bound is guaranteed.

    Raised instead of returning a clamped value: outside the window the
    inequality carries no guarantee, and silently clamping would
    fabricate one.
    """


class EmptyGrid(ExchboundError, ValueError):
    """A sweep grid argument is empty."""
