"""Deterministic rendering of report dictionaries.

Reports are plain dicts built by the CLI in a fixed key order.  Two
output formats: JSON (machine) and an indented key/value text (human).
Both are byte-deterministic for identical inputs.  Rationals render as
"p/q" with positive denominator, collapsed to "p" when integral; bools
render as yes/no in the text format.

Both walk the report once, dispatching on each value's exact type, and
the JSON is byte for byte `json.dumps(indent=2)` of the same tree with
Fractions as "p/q" strings and tuples as lists.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

_INDENT = "  "


def rational_str(value) -> str:
    """Canonical "p/q" rendering, "p" when the denominator is 1."""
    frac = value if type(value) is Fraction else Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _json(value, pad: str) -> str:
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is Fraction:
        return f'"{rational_str(value)}"'
    if value is None:
        return "null"
    inner = pad + _INDENT
    if kind is dict:
        if not value:
            return "{}"
        items = [f"{_json_str(str(key))}: {_json(item, inner)}" for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {kind.__name__} into a report")


def render_json(data: dict) -> str:
    """JSON with two-space indent, keys in insertion order, trailing newline."""
    return _json(data, "") + "\n"


def _scalar_str(value) -> str:
    kind = type(value)
    if kind is bool:
        return "yes" if value else "no"
    if kind is Fraction:
        return rational_str(value)
    if kind is list or kind is tuple:
        return "(" + ", ".join(map(_scalar_str, value)) + ")"
    return str(value)


def _render_block(data: dict, depth: int, lines: list) -> None:
    pad = _INDENT * depth
    for key, value in data.items():
        kind = type(value)
        if kind is dict:
            lines.append(f"{pad}{key}:")
            _render_block(value, depth + 1, lines)
        elif (kind is list or kind is tuple) and any(type(item) is dict for item in value):
            # a sequence holding a dict renders as an indented list of items
            lines.append(f"{pad}{key}:")
            for item in value:
                if type(item) is dict:
                    lines.append(f"{pad}{_INDENT}-")
                    _render_block(item, depth + 2, lines)
                else:
                    lines.append(f"{pad}{_INDENT}- {_scalar_str(item)}")
        else:
            lines.append(f"{pad}{key}: {_scalar_str(value)}")


def render_text(data: dict) -> str:
    """Indented "key: value" listing with a trailing newline."""
    lines: list = []
    _render_block(data, 0, lines)
    return "\n".join(lines) + "\n"
