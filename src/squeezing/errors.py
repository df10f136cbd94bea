"""Exception types shared across the package."""


class SqueezingError(Exception):
    """Base class for every package-specific error."""


class DomainValidationError(SqueezingError, ValueError):
    """An input violates the defining constraints of its mathematical domain."""


class ShapeMismatch(SqueezingError, ValueError):
    """A matrix or vector does not have the shape/symmetry the domain requires."""


class EmptyList(SqueezingError, ValueError):
    """An aggregate operation received no elements."""


class PunctureEvaluation(SqueezingError, ValueError):
    """Evaluation was requested at a puncture, where the value is undefined."""


class GuardViolation(SqueezingError):
    """|f| dipped below the guard threshold on a contour; a zero may sit on or
    near the contour, so the zero count is not trustworthy."""


class NonIntegerResidual(SqueezingError):
    """Contour quadrature did not settle within the snap window of an integer."""


class PointOutsideAnnulus(SqueezingError, ValueError):
    """The query point does not lie strictly between the annulus radii."""


class OutOfFundamentalRange(SqueezingError, ValueError):
    """A radial query below sqrt(r) must be folded by the reflection first."""


class ParameterOrderViolation(SqueezingError, ValueError):
    """Nested-radius parameters must satisfy 0 < u < v < w < 1."""


class PointNotInDomain(SqueezingError, ValueError):
    """The query point is not a member of the domain."""


class NotCertified(SqueezingError):
    """An embedding candidate without a passing injectivity certificate was
    used where only certified candidates are allowed."""


class ImageEscapesDisc(SqueezingError):
    """A candidate map sends boundary samples outside the closed unit disc."""


class InvalidCertificate(SqueezingError, ValueError):
    """A bound certificate has an unknown tag or a value outside (0, 1]."""
