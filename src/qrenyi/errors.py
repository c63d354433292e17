"""Exception types raised across the package."""


class QRenyiError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(QRenyiError):
    """Input matrix fails the hermiticity check."""


class NonFiniteInput(QRenyiError):
    """Input matrix has a NaN or infinite entry."""


class NegativeEigenvalue(QRenyiError):
    """A nominally positive operator has an eigenvalue below -cutoff."""


class DimensionMismatch(QRenyiError):
    """Operator dimensions are incompatible."""


class SupportViolation(QRenyiError):
    """Support precondition (supp rho inside supp sigma) does not hold."""


class DisjointSupports(QRenyiError):
    """The two operators have orthogonal supports."""


class AbsoluteContinuityViolation(QRenyiError):
    """P is not absolutely continuous with respect to Q."""


class IncompleteResolution(QRenyiError):
    """Projectors do not resolve the identity."""


class IncompletePOVM(QRenyiError):
    """POVM elements do not sum to the identity."""


class DimensionTooSmall(QRenyiError):
    """A requested construction does not fit in the given dimension."""


class UnknownSuite(QRenyiError):
    """No property suite registered under the requested name."""


class PrecisionLoss(QRenyiError, ValueError):
    """A quantity is lost to floating-point range, such as a trace
    functional that underflows to 0 at a small order."""


class OptimizerNonConvergence(QRenyiError):
    """Optimization failed to converge; carries the best value found."""

    def __init__(self, message, best_value=None, best_point=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_point = best_point
