"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside the domain of validity of the requested operation."""


class SingularParameter(ParameterError):
    """Parameters hit a pole of the zeta recurrence or of a closed determinant formula."""


class ExcludedParameter(ParameterError):
    """Zero classification was requested on the excluded parameter set."""


class BoundaryParameter(ParameterError):
    """The Bessel-order trichotomy is undefined at this boundary point."""


class UnsupportedEll(ParameterError):
    """The requested closed form only exists for offset 0 or 1."""


class SingularB(ParameterError):
    """The confluent-series denominator parameter 2L+2 is a nonpositive integer."""


class VerificationError(ArithmeticError):
    """An identity that is asserted internally failed to hold."""


class NoConvergence(ArithmeticError):
    """The series did not meet the tolerance within the iteration cap."""


class ContourTooClose(ArithmeticError):
    """A zero sits too close to the integration contour for phase tracking."""
