"""`main` reads a plain argv from a table of each subcommand's own Actions.

The table (`read_plain` on each subcommand parser) reads only exact option
strings, each once, with the required ones given and values that argparse
reads as values and the option's type accepts; it hands every other argv
to argparse.  Its oracle is argparse itself: whenever the table reads an
argv, the subcommand parser's `parse_known_args` returns the same namespace
and nothing left over.
"""

from __future__ import annotations

import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbook.cli import build_parser, main

from .test_cli import NINES
from .test_golden import CASES, GOLDEN

FAMILY = str(GOLDEN / "family_n3.pg")   # vertices A and B, as in the benchmark's files

# the option strings of each subcommand, help aside; those that take an int;
# the required ones
OPTIONS = {
    "check": ["-i", "--input", "--json"],
    "canonical": ["-i", "--input", "--json"],
    "divisor": ["-i", "--input", "--json"],
    "openbook": ["-i", "--input", "--json", "--n", "--k"],
    "family": ["--json", "--s", "--t", "--N", "--sweep"],
    "surgery": ["-i", "--input", "--json", "--s", "--t", "--N", "--mu", "--chi", "--sigma"],
}
INT_OPTIONS = {"--s", "--t", "--N", "--k", "--mu", "--chi", "--sigma"}
REQUIRED = {"check": ["-i"], "canonical": ["-i"], "divisor": ["-i"], "openbook": ["-i"],
            "family": [], "surgery": ["--chi", "--sigma"]}

NEAR_MISSES = ["--js", "--inp", "--input=x", "-ix", "-h", "--", "--foo"]
AWKWARD_VALUES = ["-", "-5", "-0", "-x", "", "a b", "-7 x", "-1.5", "-1e5", "1_0", NINES]
PLAIN_VALUES = ["3", "44", "-3", "40..51", "A=3,B=57", FAMILY]

# the benchmark's argv shapes; `-i -` reads the family graph on standard input
BENCHMARK_ARGV = [
    ["divisor", "-i", FAMILY],
    ["openbook", "-i", FAMILY, "--json"],
    ["openbook", "-i", FAMILY, "--n", "A=3,B=57"],
    ["check", "-i", FAMILY],
    ["canonical", "-i", FAMILY],
    ["family", "--sweep", "40..51", "--json"],
    ["surgery", "--chi", "5", "--sigma", "-3", "--N", "44"],
    ["check", "-i", "-"],
]


def test_the_options_are_the_parsers():
    for name, sub in build_parser().commands.items():
        assert set(OPTIONS[name]) | {"-h", "--help"} == set(sub._option_string_actions), name


def run(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def forbid_argparse(monkeypatch) -> None:
    """Make every parser's `parse_known_args` fail the test."""
    def fail(argv):
        pytest.fail(f"argparse read {argv}")

    parser = build_parser()
    for each in (parser, *parser.commands.values()):
        monkeypatch.setattr(each, "parse_known_args", fail)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_golden_argv_is_read_by_the_table(case, monkeypatch):
    expected = (GOLDEN / case).read_bytes().decode("utf-8")
    forbid_argparse(monkeypatch)
    assert run(CASES[case]) == (0, expected, "")


@pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
def test_every_benchmark_argv_shape_is_read_by_the_table(argv, monkeypatch):
    stdin = (GOLDEN / "family_n3.pg").read_bytes()
    with mock.patch.object(build_parser().commands[argv[0]], "read_plain",
                           lambda argv: None):   # argparse alone
        expected = run(argv, stdin)
    assert expected[0] == 0 and expected[1]
    forbid_argparse(monkeypatch)
    assert run(argv, stdin) == expected


def argparse_reads(name: str, argv: list[str]) -> tuple | None:
    """(vars, leftovers) from the subcommand parser, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = build_parser().commands[name].parse_known_args(argv)
        except SystemExit:
            return None
    return vars(args), extra


@st.composite
def any_argv(draw):
    """A subcommand and tokens from its options, near-misses and awkward values."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    tokens = OPTIONS[name] + NEAR_MISSES + AWKWARD_VALUES + PLAIN_VALUES
    return name, draw(st.lists(st.sampled_from(tokens), max_size=8))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(any_argv())
@example(("surgery", ["--chi", "5", "--sigma", "-3", "--N", "44"]))
@example(("surgery", ["--sigma", "-100", "--chi", "-0"]))
@example(("surgery", ["--chi", "-5", "--sigma", "-7 x"]))
@example(("check", ["-i", "-"]))
@example(("check", ["-i", "-", "--json"]))
@example(("check", ["-i", "-", "-i", "-"]))
def test_the_table_reads_what_argparse_reads(case):
    name, argv = case
    args = build_parser().commands[name].read_plain(argv)
    if args is not None:
        assert argparse_reads(name, argv) == (vars(args), [])


@st.composite
def plain_argv(draw):
    """A subcommand and each of a subset of its options once, in any order,
    the required ones among them, each with a value its type accepts."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    chosen = [option for option in OPTIONS[name] if option != "--input"
              and (option in REQUIRED[name] or draw(st.booleans()))]
    argv = []
    for option in draw(st.permutations(chosen)):
        if option == "-i" and draw(st.booleans()):
            option = "--input"
        argv.append(option)
        if option in INT_OPTIONS:
            argv.append(str(draw(st.integers(-10 ** 6, 10 ** 6))))
        elif option != "--json":
            argv.append(draw(st.sampled_from(["-", "", "a b", "A=3,B=57", "3..6", FAMILY])))
    return name, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(plain_argv())
@example(("surgery", ["--sigma", "-3", "--chi", "-5"]))
@example(("surgery", ["--chi", "0", "--sigma", "-0", "-i", "-", "--mu", "-12"]))
@example(("check", ["-i", "-"]))
def test_every_plain_argv_is_read_by_the_table(case):
    name, argv = case
    args = build_parser().commands[name].read_plain(argv)
    assert args is not None, argv
    assert argparse_reads(name, argv) == (vars(args), [])
