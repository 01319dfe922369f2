"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: SchemaError -> 2, PreconditionError
(and its subclasses) -> 3, NonConvergenceError -> 4.
"""


class StablePairsError(Exception):
    """Base class for all package errors."""


class SchemaError(StablePairsError):
    """Malformed or unvalidatable JSON input."""


class PreconditionError(StablePairsError, ValueError):
    """An operation was called outside its documented domain."""


class DimensionError(PreconditionError):
    """Shapes or sizes of the operands do not match."""


class ExactnessError(PreconditionError):
    """An exact-mode operation received data it cannot represent exactly."""


class DegenerateCurveError(PreconditionError):
    """Curve parametrization has a common root or failed degree certification."""


class NonConvergenceError(StablePairsError):
    """A numerical routine exhausted its budget without meeting tolerance;
    ``diagnostics`` holds what it computed on the way, when it has any."""

    def __init__(self, message: str, diagnostics: dict = None):
        super().__init__(message)
        self.diagnostics = diagnostics
