"""Exception types shared across the package."""


class DivbellError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DivbellError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularityError(DivbellError, ValueError):
    """Evaluation requested on, or too close to, a non-smooth set.

    ``which`` names the offending set ("zeta-zero-ray", "eta-zero-ray" or
    "interface").
    """

    def __init__(self, which: str, message: str | None = None):
        self.which = which
        super().__init__(message or f"evaluation too close to the {which} set")


class AccuracyError(DivbellError, RuntimeError):
    """A numerical result failed its own internal error estimate."""


class ConvergenceError(DivbellError, RuntimeError):
    """A linear solve failed to reach the requested residual."""

    def __init__(self, message: str, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")


class GeometryError(DivbellError, ValueError):
    """A geometric request does not fit inside the computational box."""


class ConfigError(DivbellError, ValueError):
    """Scenario or command-line configuration is invalid."""
