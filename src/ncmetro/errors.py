"""Exception hierarchy shared across the package.

``NumericalTrustError`` subclasses signal that a result cannot be trusted at
the requested truncation/step settings; the CLI maps them to exit code 3,
while ``ValidationError`` (bad user input) maps to exit code 2.
"""

import cmath


class NcmetroError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ValueError, NcmetroError):
    """Invalid user-supplied configuration or arguments."""


class ExpressionError(ValidationError):
    """Operator-expression parse failure; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeOverflowError(NcmetroError):
    """A polynomial operation would exceed the configured degree limit."""


class UnclassifiedPairError(NcmetroError):
    """The operator pair hit the adjoint cap without a usable classification."""


class NotGaussianError(NcmetroError):
    """Operation requires quadratic generators / Gaussian probes; use the Fock oracle."""


class DegenerateMeasurementError(NcmetroError):
    """Measured quadrature variance vanished; Fisher information undefined."""


class InternalConsistencyError(NcmetroError):
    """A computed object violates an invariant it is guaranteed to satisfy."""


class NumericalTrustError(NcmetroError):
    """Base class for results that failed a numerical trust check."""


class LeakageError(NumericalTrustError):
    """Truncated state accumulated population at the top Fock level."""


class ConvergenceError(NumericalTrustError):
    """Step-halving or truncation-doubling passes disagree beyond tolerance."""


class TruncationInstabilityError(NumericalTrustError):
    """Matrix result changed between truncation dimensions beyond tolerance."""


class BoundViolationError(NumericalTrustError):
    """A certified inequality was violated numerically (implementation bug)."""


def require_finite(**values) -> None:
    """Raise ``ValidationError`` naming the first value that is not a finite
    real or complex number."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
