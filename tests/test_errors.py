"""`errors._shown`, the one way a value becomes error text: a str as its
repr, any other value as str() writes it with the digit cap lifted, both
cut to 20 characters and '...'."""

import sys
from fractions import Fraction

import pytest

from plumbook.errors import _shown

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("value, text", [
    (-5, "-5"),
    (Fraction(1, 3), "1/3"),
    (2.5, "2.5"),
    (True, "True"),
    (None, "None"),
    ("ab", "'ab'"),
    (b"a", "b'a'"),
    (("a",), "('a',)"),
    ("x" * 20, repr("x" * 20)),
    ("x" * 21, repr("x" * 20 + "...")),
    (10 ** 19, "1" + "0" * 19),
    (10 ** 20, "1" + "0" * 19 + "..."),
])
def test_a_value_is_written_as_messages_write_it_and_cut_to_20_characters(value, text):
    assert _shown(value) == text


@pytest.mark.parametrize("value, text", [
    (-10 ** 5000, "-1" + "0" * 18 + "..."),
    (Fraction(10 ** 5000, 3), "1" + "0" * 19 + "..."),
    ((10 ** 5000,), "(1" + "0" * 18 + "..."),
], ids=["int", "Fraction", "tuple"])
def test_a_value_past_the_digit_limit_is_written_and_the_limit_restored(value, text):
    assert _shown(value) == text
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT


def test_unquoted_text_is_cut_the_same_way():
    assert _shown("v0, v1", quoted=False) == "v0, v1"
    assert _shown("v" * 5000, quoted=False) == "v" * 20 + "..."
