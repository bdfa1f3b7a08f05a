"""Exception types shared across the package."""


class CrownkitError(Exception):
    """Base class for all crownkit errors."""


class NonConvergence(CrownkitError):
    """Adaptive quadrature exhausted its subdivision budget."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class InvalidIntegrand(CrownkitError):
    """Integrand produced NaN or Inf at a sample point."""


class PointAtInfinity(CrownkitError):
    """Operation requires the affine chart but a coordinate is infinite."""


class DiagonalPoint(CrownkitError):
    """Pair point sits on the diagonal, outside the complexified space."""


class NotInCrown(CrownkitError):
    """Point lies outside the crown domain."""


class NotOnBoundary(CrownkitError):
    """Point is not within tolerance of the crown boundary."""


class NumericalDrift(CrownkitError):
    """Quadric constraint violated beyond tolerance."""


class BranchCut(CrownkitError):
    """A holomorphic branch could not be continued past a cut."""


class DomainError(CrownkitError):
    """Argument outside the mathematical domain of the operation."""


class StripExceeded(CrownkitError):
    """Contour shift would leave the strip of holomorphy."""
