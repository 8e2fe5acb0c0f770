"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside the domain of validity of the requested operation."""


class SingularParameter(ParameterError):
    """A pole of a formula, or an index below its range.  The one refusal of the excluded
    set, in three forms: rational (L, eta) with L in -(N+1)/2, only -N-1/2 if eta = 0
    (CoulombParams.validate); a Bessel order nu in -N; float (L, eta) on it (numeric series)."""


class UnsupportedEll(ParameterError):
    """The function asked has no closed form at this ell (the Rayleigh closed route covers 0..3)."""


class VerificationError(ArithmeticError):
    """An identity that is asserted internally failed to hold."""


class NoConvergence(ArithmeticError):
    """The series did not meet the tolerance within the iteration cap."""


class ContourTooClose(ArithmeticError):
    """A zero sits too close to the integration contour for phase tracking."""
