"""Exception hierarchy shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition or format contract."""


class LeakageError(ValidationError):
    """Amplitude found outside the computational subspace.

    Carries the offending ``(mode, l)`` pairs so callers can report them.
    """

    def __init__(self, offenders):
        self.offenders = list(offenders)
        super().__init__(f"amplitude outside computational range at {self.offenders}")


class InternalError(RuntimeError):
    """A check on the program's own result failed: a bug, not bad input."""
