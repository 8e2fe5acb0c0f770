"""Exception types shared across the package, and the one check of a size or index."""

from operator import index


class ParameterError(ValueError):
    """A parameter outside its domain, or a size or index not an integer or below its range."""


class SingularParameter(ParameterError):
    """A pole of a formula: the one refusal of the excluded set, from two checks:
    the CoulombParams constructor for an (L, eta) pair, rational or float at its
    exact value, with L in -(N+1)/2, only -N-1/2 if eta = 0; _check_nu for nu in -N."""


class UnsupportedEll(ParameterError):
    """The function asked has no closed form at this ell (the Rayleigh closed route covers 0..3)."""


class VerificationError(ArithmeticError):
    """An identity that is asserted internally failed to hold."""


class NoConvergence(ArithmeticError):
    """The series did not meet the tolerance within the iteration cap."""


class ContourTooClose(ArithmeticError):
    """A zero sits too close to the integration contour for phase tracking."""


def _check_size(name: str, value, least: int) -> None:
    """Refuse as ParameterError a size or index that is no integer (a bool, or
    anything operator.index refuses) or that lies below `least`."""
    try:
        value = index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
