"""Base class of the errors that coxspec raises on invalid input or on a
violated invariant; the CLI turns any of them into a one-line message."""


class CoxspecError(ValueError):
    pass


class DomainError(CoxspecError):
    """Input outside the domain a function is defined on."""
