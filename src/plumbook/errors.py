"""Exception types shared across the package, the one check of every
vector a caller hands in, and the one way a value becomes error text."""

import sys


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


def _shown(value, quoted: bool = True) -> str:
    """`value` as a message writes it: a str as its repr (as itself if not
    `quoted`), any other value as str() writes it with the digit cap
    lifted; either cut to 20 characters and '...', so it stays short."""
    text = value if isinstance(value, str) else _uncapped(str, value)
    if len(text) > 20:
        text = text[:20] + "..."
    return repr(text) if quoted and isinstance(value, str) else text


def _read_int(text: str, name: str, field: str) -> int | None:
    """int(text), or None if text is no integer.  Past the digit cap of
    int() (Python 3.10.7 on; older versions have none) a ValidationError
    names `name` and shows `field`, which holds text."""
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        digits = text[1:] if text.startswith(("+", "-")) else text
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise ValidationError(f"{name} has {len(digits)} digits, more than the interpreter's "
                                  f"limit of {limit}; got {_shown(field)}") from None
        return None


def _uncapped(walk, *args):
    """walk(*args) with the int-to-str digit cap lifted, restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        return walk(*args)
    finally:
        set_limit(limit)
