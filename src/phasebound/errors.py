"""Shared exception and warning types.

The CLI maps these onto exit codes: usage/validation problems exit 3,
numerical-integrity failures exit 4 (scenario parse errors exit 2).
"""


class ParseError(ValueError):
    """Scenario file is not valid JSON or does not match the documented schema."""


class UsageError(ValueError):
    """Caller passed incompatible arguments (wrong kind, mismatched dims)."""


class ValidationError(ValueError):
    """A declared invariant does not hold for the given data."""


class NumericalIntegrityError(ArithmeticError):
    """A numerical self-check failed (residues, imaginary parts, deficits)."""


class DegenerateGeneratorError(ValidationError):
    """Generator has zero spectral width; no extreme-eigenvector superposition."""


class StepSizeError(NumericalIntegrityError):
    """Finite-difference residue exceeds its error model; retry with smaller step."""


class BoundaryWarning(UserWarning):
    """Likelihood maximum sits on the search-interval boundary."""
