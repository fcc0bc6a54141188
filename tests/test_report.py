import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbook import rational_str, render_json, render_text


class TestRationalStr:
    def test_proper_fraction(self):
        assert rational_str(Fraction(4777, 4)) == "4777/4"

    def test_negative_sign_on_numerator(self):
        assert rational_str(Fraction(-1, 3)) == "-1/3"
        assert rational_str(Fraction(1, -3)) == "-1/3"

    def test_integral_values_collapse(self):
        assert rational_str(Fraction(6, 3)) == "2"
        assert rational_str(Fraction(-4, 2)) == "-2"
        assert rational_str(5) == "5"
        assert rational_str(0) == "0"


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
LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
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


class TestRenderJsonOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(REPORTS)
    @example({})
    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {}}})
    def test_matches_the_standard_encoder(self, data):
        assert render_json(data) == json.dumps(reference_json(data), indent=2) + "\n"


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
