"""Exception types shared across the package, and its one check of each kind of argument:
a size or index (`_check_size`), an exact value (`_rational`, which reads a string such as
"-7/4") and a float-layer number (`_number`, which takes no str or bytes)."""

from fractions import Fraction
from operator import index

_TEXT = (str, bytes, bytearray)  # never a float-layer number, nor a sequence of entries


class ParameterError(ValueError):
    """A parameter outside its domain, or a size or index not an integer or below its range."""


class SingularParameter(ParameterError):
    """A pole of a formula: the one refusal of the excluded set, from two checks:
    the CoulombParams constructor for an (L, eta) pair, rational or float at its
    exact value, with L in -(N+1)/2, only -N-1/2 if eta = 0; _check_nu for nu in -N."""


class UnsupportedEll(ParameterError):
    """An ell >= 0 outside czeta.hankel._RAYLEIGH_POLY (0..3): the Rayleigh closed route
    refuses it, and through that route every closed-form entry point and the CLI."""


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


def _rational(name: str, value) -> Fraction:
    """`Fraction(value)`, or ParameterError naming `name` where that fails (a nan, an
    infinity, a string that is no rational, None)."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ParameterError(f"{name} must be a finite rational, got {value!r}") from None


def _number(name: str, value, kind: type):
    """kind(value), kind float or complex, or ParameterError naming `name` where that
    fails: None, a str or bytes, a complex for a float, an int past double range."""
    try:
        return kind(None if isinstance(value, _TEXT) else value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a {'real' if kind is float else 'complex'} "
                             f"number, got {value!r}") from None
