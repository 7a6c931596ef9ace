"""Base class of the errors that coxspec raises on invalid input or on a
violated invariant; the CLI turns any of them into a one-line message."""


class CoxspecError(ValueError):
    pass


class DomainError(CoxspecError):
    """Input outside the domain a function is defined on."""


class MeshError(CoxspecError):
    """A mesh that cannot be built, read or written: a Cayley face cycle
    of the wrong length, a malformed OFF file or an unwritable path."""


class InvarianceError(CoxspecError):
    """Signals a broken eigensolver or clustering: a quantity that must
    be constant across an edge class or orbit is not."""
