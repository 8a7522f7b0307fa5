"""Exception hierarchy for the gelfond package."""


class GelfondError(Exception):
    """Base class for all package errors."""


class SingularityError(GelfondError):
    """Derivative requested too close to a logarithmic singularity."""


class GuardError(GelfondError):
    """A point sits inside the guard margin of an admissible window."""


class DepthError(GelfondError):
    """An iteration-depth cap was exceeded before reaching the target."""


class MultipleSignChangeError(GelfondError):
    """The coarse grid's certified signs do not run from + to -."""


class DomainError(GelfondError):
    """Argument outside the domain a closed form is valid on."""
