"""Per-operation checks of plumbook's reports against `oracles`.

Both report formats are read into the same JSON-like value (dicts, lists,
ints, bools, strings, and `Fraction` for "p/q"), so one check serves text
and `--json` output.  Every number in a report is compared with an
independent computation or tested against a relation that determines it;
free-text notes are only required to be non-empty strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

import oracles

FREE_TEXT = ("page euler note", "b1 note", "skipped")

_INT = re.compile(r"-?\d+\Z")
_RATIONAL = re.compile(r"-?\d+/\d+\Z")


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def parse(text: str, is_json: bool):
    """A report in either format as a JSON-like value with Fractions."""
    if is_json:
        try:
            return _rationals(json.loads(text))
        except ValueError as exc:
            raise CheckError(f"report is not JSON: {exc}") from None
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("text report does not end with a newline")
    value, end = _text_block(lines, 0, 0)
    if end != len(lines) - 1:
        raise CheckError(f"unparsed text report line {end + 1}: {lines[end]!r}")
    return value


def _rationals(value):
    # JSON reports write every rational, integral or not, as a string
    if isinstance(value, str) and _INT.match(value):
        return int(value)
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    if isinstance(value, list):
        return [_rationals(item) for item in value]
    if isinstance(value, dict):
        return {key: _rationals(item) for key, item in value.items()}
    return value


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _text_block(lines: list[str], pos: int, depth: int) -> tuple[dict, int]:
    out: dict = {}
    pad = "  " * depth
    while pos < len(lines) and lines[pos] and _indent(lines[pos]) == len(pad):
        line = lines[pos][len(pad):]
        if line.startswith("-"):
            break
        key, sep, rest = line.partition(": ")
        if sep:
            out[key] = _scalar(rest)
            pos += 1
        elif line.endswith(":"):
            out[line[:-1]], pos = _text_nested(lines, pos + 1, depth + 1)
        else:
            raise CheckError(f"text report line {pos + 1} is not 'key: value': {line!r}")
    return out, pos


def _text_nested(lines: list[str], pos: int, depth: int):
    pad = "  " * depth
    if pos < len(lines) and lines[pos].startswith(pad + "-"):
        items = []
        while pos < len(lines) and lines[pos].startswith(pad + "-"):
            if lines[pos] == pad + "-":
                item, pos = _text_block(lines, pos + 1, depth + 1)
            else:
                item, pos = _scalar(lines[pos][len(pad) + 2:]), pos + 1
            items.append(item)
        return items, pos
    return _text_block(lines, pos, depth)


def _scalar(text: str):
    if text in ("yes", "no"):
        return text == "yes"
    if text.startswith("("):
        value, end = _tuple(text, 0)
        if end != len(text):
            raise CheckError(f"trailing text after tuple: {text!r}")
        return value
    if _INT.match(text):
        return int(text)
    if _RATIONAL.match(text):
        return Fraction(text)
    return text


def _tuple(text: str, pos: int) -> tuple[list, int]:
    items: list = []
    pos += 1  # "("
    if text.startswith(")", pos):
        return items, pos + 1
    while True:
        if text.startswith("(", pos):
            item, pos = _tuple(text, pos)
        else:
            end = min(i for i in (text.find(",", pos), text.find(")", pos), len(text))
                      if i >= 0)
            item, pos = _scalar(text[pos:end]), end
        items.append(item)
        if text.startswith(", ", pos):
            pos += 2
        elif text.startswith(")", pos):
            return items, pos + 1
        else:
            raise CheckError(f"malformed tuple: {text!r}")


def _same(report: dict, expected: dict, where: str) -> None:
    """Every key of `expected` matches; free-text keys must be non-empty."""
    if not isinstance(report, dict):
        raise CheckError(f"{where}: report is not a mapping")
    if set(report) != set(expected):
        raise CheckError(f"{where}: keys {sorted(set(report) ^ set(expected))} differ")
    for key, value in expected.items():
        if key in FREE_TEXT:
            if not (isinstance(report[key], str) and report[key]):
                raise CheckError(f"{where}: {key!r} is not a note")
        elif type(report[key]) is bool or type(value) is bool:
            if report[key] is not value:
                raise CheckError(f"{where}: {key!r} is {report[key]!r}, expected {value!r}")
        elif report[key] != value:
            raise CheckError(f"{where}: {key!r} is {report[key]!r}, expected {value!r}")


def check_check(report, case) -> None:
    g = case.graph
    expected = {"vertices": list(g.ids), "negative definite": True,
                "determinant": case.determinant, **oracles.summary(g)}
    _same(report, expected, "check")


def check_canonical(report, case) -> None:
    g = case.graph
    rhs = [2 * genus - 2 - e for e, genus in zip(g.euler, g.genus)]
    r = report.get("coefficients")
    if not (isinstance(r, list) and len(r) == g.m
            and all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for x in r)):
        raise CheckError("canonical: coefficients are not m rationals")
    if oracles.row_sums(g, [Fraction(x) for x in r]) != rhs:
        raise CheckError("canonical: I.r differs from the adjunction rhs")
    k2 = sum(Fraction(x) * b for x, b in zip(r, rhs))
    _same(report, {"vertices": list(g.ids), "coefficients": r, "adjunction rhs": rhs,
                   "k squared": k2, "k squared integral": k2.denominator == 1},
          "canonical")


def check_divisor(report, case) -> None:
    g = case.graph
    d = list(case.divisor)
    rows = oracles.row_sums(g, d)
    slacks = [row + deg + 2 * genus
              for row, deg, genus in zip(rows, oracles.degrees(g), g.genus)]
    _same(report, {"vertices": list(g.ids), "divisor": d, "binding": [-x for x in rows],
                   "slacks": slacks, "condition holds": all(s <= 0 for s in slacks)},
          "divisor")


def _open_book(report, case, binding: list[int], where: str) -> dict:
    """Expected open-book fields; the multiplicities are accepted once they
    satisfy I.M = -k n with every M > 0 and gcd(k, M) = 1, which fixes them."""
    g = case.graph
    k, mult = report.get("k"), report.get("multiplicities")
    if not (type(k) is int and k >= 1 and isinstance(mult, list) and len(mult) == g.m
            and all(type(x) is int for x in mult)):
        raise CheckError(f"{where}: k and multiplicities are not positive integers")
    if any(x <= 0 for x in mult):
        raise CheckError(f"{where}: a multiplicity is not positive")
    if oracles.row_sums(g, mult) != [-k * n for n in binding]:
        raise CheckError(f"{where}: I.M differs from -k.n")
    if gcd(k, *mult) != 1:
        raise CheckError(f"{where}: k = {k} is not the least scale")
    counts = [k * n for n in binding]
    curves = [{"u": g.ids[i], "v": g.ids[j],
               "class at u": [mult[j], -mult[i]], "class at v": [mult[i], -mult[j]],
               "components": gcd(mult[i], mult[j])} for i, j in g.edges]
    if not isinstance(report.get("edge curves"), list) or len(report["edge curves"]) != len(curves):
        raise CheckError(f"{where}: wrong number of edge curves")
    for got, want in zip(report["edge curves"], curves):
        _same(got, want, f"{where} edge {want['u']}-{want['v']}")
    page = sum(x * (2 - 2 * genus - deg - b) for x, genus, deg, b
               in zip(mult, g.genus, oracles.degrees(g), counts))
    return {"vertices": list(g.ids), "binding": binding, "k": k, "multiplicities": mult,
            "binding counts": counts,
            "outer slopes": [[-e * x, x] for e, x in zip(g.euler, mult)],
            "edge curves": report["edge curves"], "page euler": page,
            "page euler note": "", "boundary components": sum(counts),
            "gluing verified": True}


def check_openbook(report, case) -> None:
    d = list(case.divisor)
    binding = [-x for x in oracles.row_sums(case.graph, d)]
    expected = _open_book(report, case, binding, "openbook")
    counts = expected["binding counts"]
    expected["divisor"] = d
    expected["certificate"] = {
        "graph sha256": oracles.canonical_sha256(case.graph), "divisor": d,
        "binding": binding, "k": expected["k"],
        "configuration binding counts": counts, "smoothing binding counts": counts,
        "verdict": True}
    _same(report.get("certificate"), expected["certificate"], "openbook certificate")
    _same(report, expected, "openbook")


def check_openbook_n(report, case, binding) -> None:
    _same(report, _open_book(report, case, list(binding), "openbook --n"), "openbook --n")


def check_sweep(report, lo: int, hi: int) -> None:
    members = []
    for n in range(lo, hi + 1):
        if oracles.family_valid(n):
            members.append({**oracles.family_member(n), "closed form match": True})
        else:
            members.append({"N": n, "skipped": ""})
    if not (isinstance(report, dict) and isinstance(report.get("sweep"), list)
            and len(report["sweep"]) == len(members)):
        raise CheckError("family --sweep: wrong number of members")
    for got, want in zip(report["sweep"], members):
        _same(got, want, f"family --sweep N={want['N']}")
    _same(report, {"s": 3, "sweep": report["sweep"]}, "family --sweep")


def check_surgery(report, chi: int, sigma: int, N: int) -> None:
    expected = oracles.surgery(chi, sigma, N)
    expected["chi_h integral"] = expected["chi_h"].denominator == 1
    expected["b1 note"] = ""
    _same(report, expected, "surgery")


def check(op, report) -> None:
    """Raise CheckError unless the report of `op` is right."""
    if not isinstance(report, dict):
        raise CheckError(f"{op.kind}: report is not a mapping")
    if op.kind == "sweep":
        check_sweep(report, *op.extra)
    elif op.kind == "surgery":
        check_surgery(report, *op.extra)
    elif op.kind == "openbook_n":
        check_openbook_n(report, op.case, op.extra)
    else:
        CHECKS[op.kind](report, op.case)


CHECKS = {"check": check_check, "canonical": check_canonical,
          "divisor": check_divisor, "openbook": check_openbook}
