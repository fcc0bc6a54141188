"""Exception types shared across the package."""


class PlumbookError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(PlumbookError, ValueError):
    """Bad input: malformed text, infeasible parameters, wrong shapes."""


class ParseError(ValidationError):
    """Graph DSL rejected; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionError(ValidationError):
    """Matrix or vector has the wrong shape for the requested operation."""


class ConsistencyError(PlumbookError):
    """An internal cross-check failed; indicates a bug, not bad input."""
