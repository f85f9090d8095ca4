"""Exception types shared across the package."""


class CctuError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CctuError):
    """Operands have incompatible shapes."""


class ScaleError(CctuError):
    """An enumeration or search exceeded its configured desk-scale budget."""


class InfeasibleRelaxationError(CctuError):
    """The underlying integer-linear relaxation has no solution."""


class InputFormatError(CctuError):
    """Malformed instance text; carries a location when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SolutionCheckError(CctuError):
    """A solution the solver reported failed its exact re-verification."""


class UnsupportedInstanceError(CctuError):
    """The instance is outside what the solver covers: an (m, |R|)
    combination the structural solver does not handle, or a constraint
    matrix that is not totally unimodular (an exact pivot met an entry other
    than +-1)."""
