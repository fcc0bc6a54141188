"""Deterministic rendering of report dictionaries.

Reports are plain dicts built by the CLI in a fixed key order, with str
keys; both renderers raise TypeError on any other key.  Two output
formats: JSON (machine) and an indented key/value text (human).  Both
are byte-deterministic for identical inputs.  Rationals render as "p/q"
with positive denominator, collapsed to "p" when integral; bools render
as yes/no in the text format.

Both walk the report once, dispatching on each value's exact type, and
write int and str leaves, and tuples of exactly two ints, in the
comprehension that joins their container.  The JSON is byte for byte
`json.dumps(indent=2)` of the same tree with Fractions as "p/q" strings
and tuples as lists.  The walk
lifts Python's cap on int-to-str digits (3.10.7 on) and restores it
after, so ints of any size print.

The text layout, one level being two spaces:

- a scalar, or a sequence that holds no dict at any depth, is one
  line, "key: value", the sequence inline as "(a, b, (c, d))";
- a dict is a "key:" line with its items one level deeper;
- a sequence that holds a dict at any depth is a "key:" line with one
  "-" line per item one level deeper.  A scalar or an inline sequence
  follows its "-" on the same line.  After a bare "-" come, one level
  deeper, a dict's items or the "-" lines of a nested sequence that
  holds a dict.

A sequence is first written inline, and laid out as a block only when a
dict turns up in it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import _uncapped

_INDENT = "  "
_json_str = None   # json.encoder's string quoting, imported by the first render_json


def _rational_str(frac: Fraction) -> str:
    """Canonical "p/q" rendering, "p" when the denominator is 1."""
    if frac.denominator == 1:
        return f"{frac.numerator}"
    return f"{frac.numerator}/{frac.denominator}"


def _json(value, pad: str) -> str:
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + _INDENT
        deeper = inner + _INDENT
        items = [f"{item}" if (leaf := type(item)) is int
                 else _json_str(item) if leaf is str
                 else f"[\n{deeper}{item[0]},\n{deeper}{item[1]}\n{inner}]"
                 if leaf is tuple and len(item) == 2 and type(item[0]) is type(item[1]) is int
                 else _json(item, inner)
                 for item in value]
        sep = ",\n" + inner
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + _INDENT
        deeper = inner + _INDENT
        items = [f"{_json_str(key)}: {item}" if (leaf := type(item)) is int
                 else f"{_json_str(key)}: {_json_str(item)}" if leaf is str
                 else f"{_json_str(key)}: [\n{deeper}{item[0]},\n{deeper}{item[1]}\n{inner}]"
                 if leaf is tuple and len(item) == 2 and type(item[0]) is type(item[1]) is int
                 else f"{_json_str(key)}: {_json(item, inner)}"
                 for key, item in value.items()]
        sep = ",\n" + inner
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    if kind is str:
        return _json_str(value)
    if kind is int:
        return f"{value}"
    if kind is bool:
        return "true" if value else "false"
    if kind is Fraction:
        return f'"{_rational_str(value)}"'
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {kind.__name__} into a report")


def render_json(data: dict) -> str:
    """JSON with two-space indent, keys in insertion order, trailing newline."""
    global _json_str
    if _json_str is None:
        from json.encoder import encode_basestring_ascii as _json_str
    return _uncapped(_json, data, "") + "\n"


class _DictInside(Exception):
    """A sequence holds a dict, so it has no inline form."""


def _inline(value) -> str:
    """The one-line form of a scalar or of a sequence that holds no dict."""
    kind = type(value)
    if kind is list or kind is tuple:
        return "(" + ", ".join([f"{item}" if (leaf := type(item)) is int or leaf is str
                                else f"({item[0]}, {item[1]})" if leaf is tuple
                                and len(item) == 2 and type(item[0]) is type(item[1]) is int
                                else _inline(item) for item in value]) + ")"
    if kind is str:
        return value
    if kind is int:
        return f"{value}"
    if kind is bool:
        return "yes" if value else "no"
    if kind is Fraction:
        return _rational_str(value)
    if value is None:
        return "None"
    if kind is dict:
        raise _DictInside
    raise TypeError(f"cannot serialize {kind.__name__} into a report")


def _render_block(data: dict, pad: str, lines: list) -> None:
    inner = pad + _INDENT
    for key, value in data.items():
        if type(key) is not str:
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        kind = type(value)
        if kind is int or kind is str:
            lines.append(f"{pad}{key}: {value}")
        elif kind is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is int:
            lines.append(f"{pad}{key}: ({value[0]}, {value[1]})")
        elif kind is dict:
            lines.append(f"{pad}{key}:")
            _render_block(value, inner, lines)
        else:
            try:
                lines.append(f"{pad}{key}: {_inline(value)}")
            except _DictInside:
                lines.append(f"{pad}{key}:")
                _render_items(value, inner, lines)


def _render_items(items, pad: str, lines: list) -> None:
    """The "-" lines of a sequence that holds a dict."""
    inner = pad + _INDENT
    for item in items:
        if type(item) is dict:
            lines.append(f"{pad}-")
            _render_block(item, inner, lines)
        else:
            try:
                lines.append(f"{pad}- {_inline(item)}")
            except _DictInside:
                lines.append(f"{pad}-")
                _render_items(item, inner, lines)


def render_text(data: dict) -> str:
    """Indented "key: value" listing with a trailing newline."""
    lines: list = []
    _uncapped(_render_block, data, "", lines)
    return "\n".join(lines) + "\n"
