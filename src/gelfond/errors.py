"""Exception hierarchy for the gelfond package."""


class GelfondError(Exception):
    """Base class for all package errors."""


class SingularityError(GelfondError):
    """Derivative requested too close to a logarithmic singularity."""


class GuardError(GelfondError):
    """A point sits inside the guard margin of an admissible window, or the
    balance signs at the ends of a guarded window are not certified + and -."""


class DepthError(GelfondError):
    """A truncation depth past the cap, or one whose tail bound underflows."""


class DomainError(GelfondError):
    """Argument outside the domain a closed form is valid on."""
