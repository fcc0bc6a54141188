"""Deterministic rendering of report dictionaries.

A report is a dict with str keys, built by the CLI in a fixed key order;
both renderers raise TypeError, naming the type, on any other report or
key.  Two formats: JSON (machine) and an indented key/value text
(human), both byte-deterministic for identical inputs.  Rationals render
as str() writes a Fraction, "p/q" with positive denominator, collapsed
to "p" when integral; bools render as yes/no in the text format.

Both walk the report once, dispatching on each value's exact type, and
write int and str leaves, and tuples of exactly two ints, in the
comprehension that joins their container.  The JSON is byte for byte
`json.dumps(indent=2)` of the same tree with Fractions as "p/q" strings
and tuples as lists.  The walk lifts Python's cap on int-to-str digits
(3.10.7 on) and restores it after, so ints of any size print.

The text layout, one level being two spaces, is made of blocks of
items, each item under a head: "key:" for a dict's items, "-" for the
items of a sequence that holds a dict at any depth.

- a scalar, or a sequence that holds no dict at any depth, follows its
  head on the same line, "key: value" or "- value", the sequence inline
  as "(a, b, (c, d))";
- a dict, or a sequence that holds a dict, is its head alone on a line,
  "key:" or "-", with its items as a block one level deeper.

A sequence is first written inline, and laid out as a block only when a
dict turns up in it.  One writer, `_render_block`, writes every block.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .errors import _uncapped

_INDENT = "  "
_json_str = None   # json.encoder's string quoting, imported by the first render_json


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
    if kind is bool:
        return "true" if value else "false"
    if kind is Fraction:
        return f'"{value!s}"'
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {kind.__name__} into a report")


def render_json(data: dict) -> str:
    """JSON with two-space indent, keys in insertion order, trailing newline."""
    global _json_str
    if type(data) is not dict:
        raise TypeError(f"a report is a dict, not {type(data).__name__}")
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
    if kind is bool:
        return "yes" if value else "no"
    if kind is Fraction:
        return str(value)
    if value is None:
        return "None"
    if kind is dict:
        raise _DictInside
    raise TypeError(f"cannot serialize {kind.__name__} into a report")


def _render_block(items, pad: str, lines: list, colon: str = ":") -> None:
    """The lines of a block's (head, value) items; a "-" head takes `colon` ""."""
    inner = pad + _INDENT
    for key, value in items:
        if type(key) is not str:
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        kind = type(value)
        if kind is int or kind is str:
            lines.append(f"{pad}{key}{colon} {value}")
        elif kind is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is int:
            lines.append(f"{pad}{key}{colon} ({value[0]}, {value[1]})")
        elif kind is dict:
            lines.append(f"{pad}{key}{colon}")
            _render_block(value.items(), inner, lines)
        else:
            try:
                lines.append(f"{pad}{key}{colon} {_inline(value)}")
            except _DictInside:
                lines.append(f"{pad}{key}{colon}")
                _render_block(zip(repeat("-"), value), inner, lines, "")


def render_text(data: dict) -> str:
    """Indented "key: value" listing with a trailing newline."""
    if type(data) is not dict:
        raise TypeError(f"a report is a dict, not {type(data).__name__}")
    lines: list = []
    _uncapped(_render_block, data.items(), "", lines)
    return "\n".join(lines) + "\n"
