"""Exception hierarchy shared across the package."""


class PhscaleError(Exception):
    """Base class for all package errors."""


class ModelValidationError(PhscaleError):
    """A model description failed validation."""


class SimplexViolation(ModelValidationError):
    """Mixture weights / initial distribution do not form a simplex."""


class NonIncreasingRates(ModelValidationError):
    """Hyperexponential rates are not strictly increasing and positive."""


class SingularGenerator(ModelValidationError):
    """Phase-type generator matrix is singular or structurally invalid."""


class NegativeSubordinator(ModelValidationError):
    """sigma = 0 and mu <= 0: the process is decreasing a.s."""


class NumericalFailure(PhscaleError):
    """Base class for runtime numerical failures."""


class PoleEvaluation(NumericalFailure):
    """Evaluation requested too close to a pole of the Laplace exponent."""


class BracketingFailure(NumericalFailure):
    """Could not bracket a root of the Cramer-Lundberg equation."""


class RepeatedRootsDetected(NumericalFailure):
    """Automated root pipeline found clustered (near-repeated) roots."""


class InvertedBounds(NumericalFailure):
    """A truncation gap came out negative, so a lower bound would exceed its upper bound."""


class UnsupportedRegime(PhscaleError):
    """Parameter regime outside what the closed forms support."""


class DomainError(PhscaleError, ValueError):
    """Arguments outside the valid domain of an identity."""
