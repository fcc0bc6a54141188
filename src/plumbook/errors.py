"""Exception types shared across the package, and the one check of every
vector a caller hands in."""


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


class ConsistencyError(PlumbookError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _iterable(values, name: str):
    """An iterator over `values`, or a ValidationError that names them."""
    try:
        return iter(values)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {type(values).__name__}") from None


def _int_vector(values, length: int, name: str) -> tuple[int, ...]:
    """`values` as a tuple, if they are `length` ints (`type(x) is int`, so
    no bool); otherwise a ValidationError that names the vector."""
    vector = tuple(_iterable(values, name))
    if len(vector) != length:
        raise ValidationError(f"{name} has {len(vector)} entries, expected {length}")
    if any(type(x) is not int for x in vector):
        raise ValidationError(f"{name} entries must be integers")
    return vector
