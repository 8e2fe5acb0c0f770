"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter outside the operation's domain, or a size or index below its range."""


class SingularParameter(ParameterError):
    """A pole of a formula: the one refusal of the excluded set, from two checks:
    CoulombParams.validate for an (L, eta) pair, rational or float at its exact value,
    with L in -(N+1)/2, only -N-1/2 if eta = 0; _check_nu for nu in -N."""


class UnsupportedEll(ParameterError):
    """The function asked has no closed form at this ell (the Rayleigh closed route covers 0..3)."""


class VerificationError(ArithmeticError):
    """An identity that is asserted internally failed to hold."""


class NoConvergence(ArithmeticError):
    """The series did not meet the tolerance within the iteration cap."""


class ContourTooClose(ArithmeticError):
    """A zero sits too close to the integration contour for phase tracking."""
