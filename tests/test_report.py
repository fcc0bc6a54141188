import contextlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbook import render_json, render_text


def rendered(value) -> tuple[str, str]:
    """How render_text and render_json show `value`, JSON's quotes dropped."""
    text = render_text({"x": value}).removeprefix("x: ").removesuffix("\n")
    shown = render_json({"x": value}).removeprefix('{\n  "x": ').removesuffix("\n}\n")
    return text, shown.strip('"')


class TestRationalStr:
    def test_proper_fraction(self):
        assert rendered(Fraction(4777, 4)) == ("4777/4", "4777/4")

    def test_negative_sign_on_numerator(self):
        assert rendered(Fraction(-1, 3)) == ("-1/3", "-1/3")
        assert rendered(Fraction(1, -3)) == ("-1/3", "-1/3")

    def test_integral_values_collapse(self):
        assert rendered(Fraction(6, 3)) == ("2", "2")
        assert rendered(Fraction(-4, 2)) == ("-2", "-2")
        assert rendered(Fraction(5)) == ("5", "5")
        assert rendered(Fraction(0)) == ("0", "0")
        assert rendered(5) == ("5", "5")
        assert rendered(0) == ("0", "0")


# 10^5000 has 5,001 digits, past Python's default cap of 4,300 (3.10.7 on);
# its decimal strings are built here without int-to-str conversion
HUGE, HUGE_DIGITS = 10 ** 5000, "1" + "0" * 5000
HUGE_PLUS_ONE_DIGITS = HUGE_DIGITS[:-1] + "1"


def digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestPastTheDigitLimit:
    @pytest.mark.parametrize("value, digits", [
        (HUGE, HUGE_DIGITS),
        (-HUGE, "-" + HUGE_DIGITS),
        (Fraction(HUGE + 1, 3), HUGE_PLUS_ONE_DIGITS + "/3"),
    ], ids=["int", "negative int", "Fraction"])
    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_prints_and_leaves_the_limit_as_it_was(self, render, value, digits):
        limit = digit_limit()
        out = render({"x": value})
        assert digit_limit() == limit
        assert out in (f"x: {digits}\n", f'{{\n  "x": {digits}\n}}\n',
                       f'{{\n  "x": "{digits}"\n}}\n')

    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_a_render_that_raises_leaves_the_limit_too(self, render):
        limit = digit_limit()
        with pytest.raises(TypeError):
            render({"x": HUGE, "y": object()})
        assert digit_limit() == limit


@pytest.mark.parametrize("value, kind", [
    (0.5, "float"), ({1}, "set"), (object(), "object"), ((1, 0.5), "float"),
], ids=["float", "set", "object", "float in a tuple"])
@pytest.mark.parametrize("render", [render_text, render_json])
def test_both_renderers_reject_a_value_of_no_report_type(render, value, kind):
    with pytest.raises(TypeError, match=f"^cannot serialize {kind} into a report$"):
        render({"x": value})


@pytest.mark.parametrize("data, kind", [
    ("x", "str"), (5, "int"), ([1, 2], "list"), (None, "NoneType"),
], ids=["str", "int", "list", "None"])
@pytest.mark.parametrize("render", [render_text, render_json])
def test_both_renderers_reject_a_report_that_is_no_dict(render, data, kind):
    with pytest.raises(TypeError, match=f"^a report is a dict, not {kind}$"):
        render(data)


@pytest.mark.parametrize("data", [
    {True: 1}, {None: 1}, {1: 1}, {"a": {1: 2}}, {"x": [{"k": 1}, {2: 3}]},
], ids=["bool", "None", "int", "nested dict", "dict in a list"])
@pytest.mark.parametrize("render", [render_text, render_json])
def test_both_renderers_reject_a_key_that_is_no_str(render, data):
    # str() would write True where json.dumps writes true, so the two
    # formats could only disagree on such a key
    with pytest.raises(TypeError):
        render(data)


class TestRenderJson:
    def test_structure(self):
        data = {"a": 1, "b": Fraction(1, 2), "c": [True, "x"], "d": {"e": None}}
        text = render_json(data)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == {"a": 1, "b": "1/2", "c": [True, "x"], "d": {"e": None}}

    def test_key_order_preserved(self):
        text = render_json({"zebra": 1, "alpha": 2})
        assert text.index("zebra") < text.index("alpha")

    def test_deterministic(self):
        data = {"x": (1, 2), "y": Fraction(3, 7)}
        assert render_json(data) == render_json(data)

    def test_rejects_unknown_types(self):
        for value in (object(), 0.5, [1, {"deep": 1.0}], (object(),)):
            with pytest.raises(TypeError):
                render_json({"x": value})

    @pytest.mark.parametrize("key", [True, None, 1], ids=["bool", "None", "int"])
    def test_rejects_a_key_that_is_no_str(self, key):
        # json.dumps would write true, null and 1 where str() gives True,
        # None and 1, so no key but a str can be written byte for byte
        with pytest.raises(TypeError):
            render_json({key: 1})
        with pytest.raises(TypeError):
            render_json({"x": [{key: 1}]})


def reference_json(value):
    """The report as the standard library's encoder takes it, built without
    any of `report`'s code: a Fraction becomes "p/q" ("p" when integral),
    a tuple a list."""
    if isinstance(value, Fraction):
        p, q = value.numerator, value.denominator
        return str(p) if q == 1 else str(p) + "/" + str(q)
    if isinstance(value, dict):
        return {key: reference_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_json(item) for item in value]
    return value


LONG = 10 ** 299   # an int of at least 300 digits
INTS = st.integers(min_value=-10 ** 20, max_value=10 ** 20)
LEAVES = st.one_of(
    st.tuples(INTS, INTS),   # an int pair, which both renderers write inline
    st.booleans(),
    st.none(),
    INTS,
    st.integers(min_value=LONG, max_value=10 ** 400),
    st.integers(min_value=-10 ** 400, max_value=-LONG),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-10 ** 400, max_value=10 ** 400),
              st.integers(min_value=1, max_value=10 ** 320)),
    st.text(alphabet=st.sampled_from('"\\/\x00\x01\x1f\x7f\b\t\n\r aZ9é€ß\u2028😀')),
    st.text(),
)
KEYS = st.text(alphabet=st.sampled_from('"\\\n\ta zé😀:'), max_size=6)
REPORTS = st.dictionaries(KEYS, st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20), max_size=5)


@contextlib.contextmanager
def no_digit_cap():
    """The references print ints past the digit cap too."""
    limit = digit_limit()
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    try:
        yield
    finally:
        getattr(sys, "set_int_max_str_digits", lambda _: None)(limit)


# int pairs inside dicts, lists and nested tuples, and tuples that are not
# int pairs: a bool, a Fraction, ints past the digit cap, one and three ints
PAIRS = {"slopes": ((160, 1), (-88, 0)), "d": {"class at u": (1, -1), "n": {"p": (0, -7)}},
         "l": [(2, 3), [(4, 5)], ((6, 7), ((8, 9), 10))],
         "curves": [{"u": "a", "class at u": (1, -2), "components": 1}, (3, 4)]}
NOT_PAIRS = {"bool": (True, 1), "in a tuple": ((1, False), (None, 2)),
             "fraction": (1, Fraction(1, 2)), "huge": (HUGE, -HUGE), "one": (5,),
             "three": (1, 2, 3), "list": [1, 2],
             "nested": [((Fraction(3), 4),), {"k": (1, 2, 3)}, (5,)]}


class TestRenderJsonOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(REPORTS)
    @example({})
    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {}}})
    @example(PAIRS)
    @example(NOT_PAIRS)
    def test_matches_the_standard_encoder(self, data):
        with no_digit_cap():
            expected = json.dumps(reference_json(data), indent=2) + "\n"
        assert render_json(data) == expected


class TestRenderText:
    def test_scalars_and_booleans(self):
        text = render_text({"m": 2, "negative definite": True, "flag": False})
        assert text == "m: 2\nnegative definite: yes\nflag: no\n"

    def test_fractions_and_tuples(self):
        text = render_text({"chi_h": Fraction(4777, 4), "M": (30, 87)})
        assert "chi_h: 4777/4\n" in text
        assert "M: (30, 87)\n" in text

    def test_nested_dict(self):
        text = render_text({"outer": {"inner": 1}})
        assert text == "outer:\n  inner: 1\n"

    def test_list_of_dicts(self):
        text = render_text({"items": [{"a": 1}, {"a": 2}]})
        assert text == "items:\n  -\n    a: 1\n  -\n    a: 2\n"

    def test_nested_tuples_inline(self):
        text = render_text({"slopes": ((90, 30), (87, 87))})
        assert text == "slopes: ((90, 30), (87, 87))\n"

    def test_deterministic(self):
        data = {"a": [1, 2], "b": {"c": Fraction(1, 3)}}
        assert render_text(data) == render_text(data)

    def test_empty_containers(self):
        assert render_text({}) == "\n"
        text = render_text({"d": {}, "l": [], "t": (), "after": 1})
        assert text == "d:\nl: ()\nt: ()\nafter: 1\n"

    def test_bool_inside_tuple(self):
        text = render_text({"flags": (True, False, (False,))})
        assert text == "flags: (yes, no, (no))\n"

    def test_mixed_list_of_dicts_and_scalars(self):
        text = render_text({"items": [1, {"a": Fraction(1, 2)}, (True, 2), "x", {}]})
        assert text == "items:\n  - 1\n  -\n    a: 1/2\n  - (yes, 2)\n  - x\n  -\n"

    def test_nested_sequences_stay_inline(self):
        text = render_text({"t": ((1, 2), [3])})
        assert text == "t: ((1, 2), (3))\n"

    def test_dict_two_sequences_deep(self):
        text = render_text({"x": [[{"a": 1}]]})
        assert text == "x:\n  -\n    -\n      a: 1\n"

    def test_dict_in_a_nested_sequence_after_a_scalar(self):
        text = render_text({"x": [1, [{"a": 1}]]})
        assert text == "x:\n  - 1\n  -\n    -\n      a: 1\n"

    def test_only_a_sequence_that_holds_a_dict_becomes_a_block(self):
        text = render_text({"x": ((1, (True,)), ((2,), {"a": (3, 4)}), [5])})
        assert text == ("x:\n  - (1, (yes))\n  -\n    - (2)\n    -\n      a: (3, 4)\n"
                        "  - (5)\n")


def reference_text(report: dict) -> str:
    """The text layout of `report`'s docstring, built without any of
    `report`'s code: "key: value" lines, two spaces a level, a dict or a
    sequence holding a dict at any depth laid out as a block."""
    lines = []

    def holds_dict(value) -> bool:
        return isinstance(value, dict) or (
            isinstance(value, (list, tuple)) and any(holds_dict(item) for item in value))

    def inline(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, (list, tuple)):
            return "(" + ", ".join(inline(item) for item in value) + ")"
        if isinstance(value, Fraction):
            p, q = value.numerator, value.denominator
            return str(p) if q == 1 else str(p) + "/" + str(q)
        return str(value)   # an int, a str or None

    def block(data: dict, depth: int) -> None:
        for key, value in data.items():
            if holds_dict(value):
                lines.append("  " * depth + str(key) + ":")
                (block if isinstance(value, dict) else items)(value, depth + 1)
            else:
                lines.append("  " * depth + str(key) + ": " + inline(value))

    def items(sequence, depth: int) -> None:
        for item in sequence:
            if holds_dict(item):
                lines.append("  " * depth + "-")
                (block if isinstance(item, dict) else items)(item, depth + 1)
            else:
                lines.append("  " * depth + "- " + inline(item))

    block(report, 0)
    return "\n".join(lines) + "\n"


class TestRenderTextOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(REPORTS)
    @example({})
    @example({"x": [[{"a": 1}]], "y": [1, [{"a": 1}]], "z": ((True, (False, None)), [])})
    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {}}})
    @example({"t": ((LONG, -LONG), [True, (Fraction(1, 3), "s")]), "d": [[[{"k": [{}]}]]]})
    @example(PAIRS)
    @example(NOT_PAIRS)
    def test_matches_the_documented_layout(self, data):
        with no_digit_cap():
            expected = reference_text(data)
        assert render_text(data) == expected
