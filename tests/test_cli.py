import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbook
from plumbook.cli import build_parser, main

from .conftest import feasibility_thresholds, intersection_rows, is_feasible
from .test_elimination import bareiss_determinant
from .test_golden import CASES, GOLDEN

N3_TEXT = """\
vertex a e=-3 g=1
vertex b e=-1 g=28
edge a b
"""


@pytest.fixture
def n3_file(tmp_path):
    path = tmp_path / "n3.pg"
    path.write_text(N3_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_family_graph(self, capsys, n3_file):
        code, out, err = run(capsys, "check", "-i", n3_file)
        assert code == 0
        assert err == ""
        assert "m: 2\n" in out
        assert "h: 58\n" in out
        assert "negative definite: yes\n" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(N3_TEXT.encode())))
        code, out, _ = run(capsys, "check", "-i", "-")
        assert code == 0
        assert "m: 2\n" in out

    def test_json_output(self, capsys, n3_file):
        code, out, _ = run(capsys, "check", "-i", n3_file, "--json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["m"] == 2
        assert parsed["negative definite"] is True
        assert parsed["determinant"] == "2"
        assert parsed["vertices"] == ["a", "b"]

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check", "-i", "/nonexistent/x.pg")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.pg"
        path.write_text("vertex a e=-2\n", encoding="utf-8")
        code, _, err = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_is_a_parse_error(self, source, capsys, tmp_path, monkeypatch):
        data = b"vertex a e=-2 g=0\nvertex b e=-2 g=0\xff\nedge a b\n"
        path = tmp_path / "bad.pg"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, "check", "-i", str(path) if source == "file" else "-")
        assert code == 1
        assert out == ""
        assert err == "error: line 2: input is not UTF-8: byte 0xff at offset 35\n"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_is_numbered_by_the_parsers_line_ends(self, end, capsys, tmp_path):
        data = f"vertex A e=-2 g=0{end}vertex B e=-2 g=".encode() + b"\xff" + end.encode()
        path = tmp_path / "bad.pg"
        path.write_bytes(data)
        code, out, err = run(capsys, "check", "-i", str(path))
        assert (code, out) == (1, "")
        offset = data.index(b"\xff")
        assert err == f"error: line 2: input is not UTF-8: byte 0xff at offset {offset}\n"

    @pytest.mark.parametrize("template", ["vertex a e=-{} g=0", "vertex a e=-2 g={}"])
    def test_integer_past_the_digit_limit(self, template, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no digit limit for int strings")
        line = template.format("9" * (limit + 1))
        field = max(line.split(), key=len)
        path = tmp_path / "long.pg"
        path.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert out == ""
        assert err == (f"error: line 1: '{field[:2]}' has {limit + 1} digits, more than "
                       f"the interpreter's limit of {limit}; got {field[:20] + '...'!r}\n")

    def test_indefinite_graph(self, capsys, tmp_path):
        path = tmp_path / "pos.pg"
        path.write_text("vertex a e=1 g=0\n", encoding="utf-8")
        code, _, err = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert "not negative definite" in err

    def test_indefinite_graph_names_the_vertex(self, capsys, tmp_path):
        path = tmp_path / "ab.pg"
        path.write_text("vertex A e=-1 g=0\nvertex B e=-1 g=0\n"
                        "vertex C e=-5 g=0\nedge A B\nedge B C\n", encoding="utf-8")
        code, _, err = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert "intersection matrix is not negative definite (pivot at vertex B)" in err

    def test_disconnected_graph(self, capsys, tmp_path):
        path = tmp_path / "disc.pg"
        path.write_text("vertex a e=-2 g=0\nvertex b e=-2 g=0\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert "disconnected" in err


class TestCanonicalAndDivisor:
    def test_canonical(self, capsys, n3_file):
        code, out, _ = run(capsys, "canonical", "-i", n3_file)
        assert code == 0
        assert "coefficients: (-29, -84)\n" in out
        assert "k squared: -4707\n" in out
        assert "k squared integral: yes\n" in out

    def test_divisor(self, capsys, n3_file):
        code, out, _ = run(capsys, "divisor", "-i", n3_file)
        assert code == 0
        assert "divisor: (30, 87)\n" in out
        assert "binding: (3, 57)\n" in out
        assert "slacks: (0, 0)\n" in out
        assert "condition holds: yes\n" in out


class TestOpenbook:
    def test_explicit_binding(self, capsys, n3_file):
        code, out, _ = run(capsys, "openbook", "-i", n3_file,
                           "--n", "a=3,b=57")
        assert code == 0
        assert "k: 1\n" in out
        assert "multiplicities: (30, 87)\n" in out
        assert "gluing verified: yes\n" in out
        assert "page euler: -9864\n" in out
        assert "derived by this tool" in out

    def test_default_binding_includes_certificate(self, capsys, n3_file):
        code, out, _ = run(capsys, "openbook", "-i", n3_file)
        assert code == 0
        assert "divisor: (30, 87)\n" in out
        assert "certificate:" in out
        assert "verdict: yes\n" in out

    def test_json_certificate(self, capsys, n3_file):
        code, out, _ = run(capsys, "openbook", "-i", n3_file, "--json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["certificate"]["verdict"] is True
        assert parsed["certificate"]["binding"] == [3, 57]
        assert len(parsed["certificate"]["graph sha256"]) == 64

    def test_scaled(self, capsys, n3_file):
        code, out, _ = run(capsys, "openbook", "-i", n3_file,
                           "--n", "a=3,b=57", "--k", "2")
        assert code == 0
        assert "k: 2\n" in out
        assert "multiplicities: (60, 174)\n" in out
        assert "binding counts: (6, 114)\n" in out

    def test_bad_scale(self, capsys, tmp_path):
        path = tmp_path / "a1.pg"
        path.write_text("vertex a e=-2 g=0\n", encoding="utf-8")
        code, _, err = run(capsys, "openbook", "-i", str(path),
                           "--n", "a=1", "--k", "3")
        assert code == 1
        assert "multiple" in err

    def test_binding_parse_errors(self, capsys, n3_file):
        for entry in ("a=3", "a=3,b=57,c=1", "a=3,a=4,b=57", "a=x,b=57"):
            code, _, err = run(capsys, "openbook", "-i", n3_file, "--n", entry)
            assert code == 1, entry
            assert "error:" in err

    @pytest.mark.parametrize("entry, message", [
        ("v2=1,x=1,v0=1,w=1,v1=1", "binding names unknown vertices: x, w"),
        ("v2=1", "binding is missing vertices: v0, v1"),
    ])
    def test_binding_name_errors_keep_their_order(self, entry, message, capsys, tmp_path):
        path = tmp_path / "a3.pg"
        path.write_text("".join(f"vertex v{i} e=-2 g=0\n" for i in range(3))
                        + "edge v0 v1\nedge v1 v2\n", encoding="utf-8")
        code, out, err = run(capsys, "openbook", "-i", str(path), "--n", entry)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_empty_binding_entries_are_skipped(self, capsys):
        family = str(GOLDEN / "family_n3.pg")
        code, out, err = run(capsys, "openbook", "-i", family, "--n", "A=3,B=57")
        assert (code, err) == (0, "")
        assert run(capsys, "openbook", "-i", family, "--n", "A=3,,B=57,") == (0, out, "")

    @pytest.mark.parametrize("argv", [["divisor"], ["openbook"], ["openbook", "--n", "A=1,B=2"]],
                             ids=["divisor", "openbook", "openbook --n"])
    def test_a_failed_gluing_check_is_exit_2(self, argv, capsys, monkeypatch):
        # the gluing check holds on every graph, so a broken one stands in
        # for a wrong solve or search
        failure = "vertex A: multiplicity relation gives -1, expected -2"
        monkeypatch.setattr(plumbook.openbook, "verify_gluing", lambda description: (failure,))
        code, out, err = run(capsys, argv[0], "-i", str(GOLDEN / "family_n3.pg"), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: constructed description failed its own gluing check: {failure}\n"

    def test_full_binding_on_a_long_chain(self, capsys, tmp_path):
        # each entry is looked up in a set built once, not in the tuple of
        # ids, so reading a full --n is linear in the number of vertices
        m = 2000
        text = "".join(f"vertex c{i} e=-3 g=0\n" for i in range(m))
        text += "".join(f"edge c{i} c{i + 1}\n" for i in range(m - 1))
        path = tmp_path / "chain.pg"
        path.write_text(text, encoding="utf-8")
        # n = -I.(1, ..., 1): 2 at both ends, 1 inside
        binding = [2] + [1] * (m - 2) + [2]
        argv = ",".join(f"c{i}={n}" for i, n in enumerate(binding))
        code, out, err = run(capsys, "openbook", "-i", str(path), "--n", argv, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["binding"] == binding
        graph = plumbook.parse_graph(text)
        assert intersection_rows(graph, report["multiplicities"]) == [
            -b for b in report["binding counts"]]


class TestFamily:
    def test_single_member(self, capsys):
        code, out, _ = run(capsys, "family", "--s", "3", "--N", "5")
        assert code == 0
        assert "t: 117\n" in out
        assert "mu: 205347\n" in out
        assert "sigma: -86437\n" in out
        assert "p_g: 29816\n" in out
        assert "closed form match: yes\n" in out

    def test_default_s(self, capsys):
        code, out, _ = run(capsys, "family", "--N", "3")
        assert code == 0
        assert "mu: 9865\n" in out
        assert "sigma: -5047\n" in out

    def test_explicit_t(self, capsys):
        code, out, _ = run(capsys, "family", "--s", "3", "--t", "57", "--N", "3")
        assert code == 0
        assert "mu: 9865\n" in out

    def test_invalid_member(self, capsys):
        code, _, err = run(capsys, "family", "--N", "4")
        assert code == 1
        assert "gcd" in err

    def test_small_N_is_named_before_the_derived_t(self, capsys):
        # t defaults to 30N - 33, which is negative for N = 1
        code, out, err = run(capsys, "family", "--N", "1")
        assert code == 1
        assert out == ""
        assert err == "error: N must be at least 3, got N=1\n"

    def test_requires_N_or_sweep(self, capsys):
        code, _, err = run(capsys, "family")
        assert code == 1
        assert "--N" in err

    def test_t_required_for_other_s(self, capsys):
        code, _, err = run(capsys, "family", "--s", "4", "--N", "3")
        assert code == 1
        assert "--t is required" in err

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "family", "--sweep", "3..6", "--json")
        assert code == 0
        parsed = json.loads(out)
        members = parsed["sweep"]
        assert [m["N"] for m in members] == [3, 4, 5, 6]
        assert members[0]["mu"] == 9865
        assert "skipped" in members[1]
        assert members[2]["closed form match"] is True
        assert members[3]["sigma"] == -208860

    def test_sweep_flag_conflicts(self, capsys):
        code, _, err = run(capsys, "family", "--sweep", "3..5", "--N", "3")
        assert code == 1
        assert "--sweep" in err

    def test_sweep_needs_s_3(self, capsys):
        # other s need --t for every member, and --sweep does not take --t
        code, out, err = run(capsys, "family", "--s", "2", "--sweep", "3..5")
        assert code == 1
        assert out == ""
        assert err == ("error: --sweep needs s = 3: s = 2 needs --t, "
                       "which --sweep does not take\n")

    def test_sweep_format_errors(self, capsys):
        for bad in ("3", "3..", "a..b", "5..3"):
            code, _, err = run(capsys, "family", "--sweep", bad)
            assert code == 1, bad


class TestSurgery:
    def test_family_mode(self, capsys):
        code, out, _ = run(capsys, "surgery", "--chi", "1", "--sigma", "-100",
                           "--N", "3")
        assert code == 0
        assert "chi: 9922\n" in out
        assert "sigma: -5145\n" in out
        assert "c1 squared: 4409\n" in out
        assert "chi_h: 4777/4\n" in out
        assert "chi_h integral: no\n" in out

    def test_graph_mode(self, capsys, tmp_path):
        path = tmp_path / "torus.pg"
        path.write_text("vertex a e=-1 g=1\n", encoding="utf-8")
        code, out, _ = run(capsys, "surgery", "--chi", "100", "--sigma", "-20",
                           "-i", str(path), "--mu", "10")
        assert code == 0
        assert "chi: 111\n" in out
        assert "sigma: -27\n" in out

    def test_inconsistent_mu_is_exit_1(self, capsys, n3_file):
        code, _, err = run(capsys, "surgery", "--chi", "1", "--sigma", "0",
                           "-i", n3_file, "--mu", "9866")
        assert code == 1
        assert "error: [surgery]" in err

    def test_readme_example_mu_fits_only_when_consistent(self, capsys, n3_file):
        code, _, err = run(capsys, "surgery", "--chi", "100", "--sigma", "-20",
                           "-i", n3_file, "--mu", "10")
        assert code == 1
        assert "[surgery] --mu 10 does not fit the graph" in err
        assert "not divisible by 12" in err
        code, out, _ = run(capsys, "surgery", "--chi", "100", "--sigma", "-20",
                           "-i", n3_file, "--mu", "13")
        assert code == 0
        assert "p_g: 398\n" in out

    def test_non_integral_k_squared_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "a.pg"
        path.write_text("vertex A e=-3 g=0\n", encoding="utf-8")
        code, out, err = run(capsys, "surgery", "--chi", "100", "--sigma", "-20",
                             "-i", str(path), "--mu", "10")
        assert code == 1
        assert out == ""
        assert "[surgery]" in err
        assert "K^2 = -1/3 is not an integer" in err

    def test_mode_conflicts(self, capsys, n3_file):
        code, _, err = run(capsys, "surgery", "--chi", "0", "--sigma", "0",
                           "--N", "3", "-i", n3_file, "--mu", "5")
        assert code == 1
        code, _, err = run(capsys, "surgery", "--chi", "0", "--sigma", "0")
        assert code == 1
        code, _, err = run(capsys, "surgery", "--chi", "0", "--sigma", "0",
                           "-i", n3_file)
        assert code == 1


class TestDivisorSearch:
    def test_huge_genus_vertex_is_exit_0(self, capsys, tmp_path):
        # the least divisor lies 11,999,999 unit raises above (1); a search
        # capped at 10^7 steps ended here in exit 2
        path = tmp_path / "a.pg"
        path.write_text("vertex A e=-1 g=6000000\n", encoding="utf-8")
        code, out, err = run(capsys, "divisor", "-i", str(path))
        assert code == 0
        assert err == ""
        assert "divisor: (12000000)\n" in out
        assert "binding: (12000000)\n" in out

    def test_long_minus_two_chain_is_feasible_and_minimal(self, capsys, tmp_path):
        m = 500
        weights = [-2] * (m - 1) + [-3]
        text = "".join(f"vertex c{i} e={e} g=0\n" for i, e in enumerate(weights))
        text += "".join(f"edge c{i} c{i + 1}\n" for i in range(m - 1))
        path = tmp_path / "chain.pg"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "divisor", "-i", str(path), "--json")
        assert code == 0
        divisor = json.loads(out)["divisor"]
        graph = plumbook.parse_graph(text)
        assert is_feasible(graph, divisor)
        for i in range(m):
            if divisor[i] > 1:
                lowered = divisor.copy()
                lowered[i] -= 1
                assert not is_feasible(graph, lowered), i


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64
        assert "invalid choice" in err

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_unknown_flag(self, capsys, n3_file):
        code, _, err = run(capsys, "check", "-i", n3_file, "--frobnicate")
        assert code == 64
        assert "unrecognized" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 64
        assert "required" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("check", "canonical", "divisor", "openbook", "family",
                     "surgery"):
            assert name in text


class TestDeterminism:
    def test_text_reports_byte_identical(self, capsys, n3_file):
        _, first, _ = run(capsys, "openbook", "-i", n3_file, "--n", "a=3,b=57")
        _, second, _ = run(capsys, "openbook", "-i", n3_file, "--n", "a=3,b=57")
        assert first == second

    def test_json_reports_byte_identical(self, capsys):
        _, first, _ = run(capsys, "family", "--N", "3", "--json")
        _, second, _ = run(capsys, "family", "--N", "3", "--json")
        assert first == second

    def test_json_key_order_stable(self, capsys, n3_file):
        _, out, _ = run(capsys, "check", "-i", n3_file, "--json")
        keys = list(json.loads(out).keys())
        assert keys == ["vertices", "m", "edges", "negative definite",
                        "determinant", "h", "chi of neighborhood",
                        "cycle rank", "degrees"]


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def digits_unlimited():
    """Python's digit limit lifted, to read a report's ints past it."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(DIGIT_LIMIT)


def huge_pair() -> tuple[str, int]:
    """Two vertices with e = -10^4000 joined by an edge, det = e_A e_B - 1."""
    e = "-1" + "0" * 4000
    return f"vertex A e={e} g=0\nvertex B e={e} g=0\nedge A B\n", 10 ** 8000 - 1


def long_chain() -> tuple[str, int]:
    """1,500 vertices with e = -1000 in a chain; det is the continuant
    D_k = -1000 D_{k-1} - D_{k-2}."""
    m = 1500
    text = "".join(f"vertex c{i} e=-1000 g=0\n" for i in range(m))
    text += "".join(f"edge c{i} c{i + 1}\n" for i in range(m - 1))
    before, det = 0, 1
    for _ in range(m):
        before, det = det, -1000 * det - before
    return text, det


def quartics(N: int) -> tuple[int, Fraction]:
    """mu and sigma of the s = 3 family member, the closed-form quartics."""
    mu = 900 * N**4 - 3810 * N**3 + 5292 * N**2 - 2705 * N + 322
    sigma = -300 * N**4 + 960 * N**3 - Fraction(2348, 3) * N**2 + Fraction(379, 3) * N - 2
    return mu, sigma


class TestPastTheDigitLimit:
    """Reports holding ints of more than 4,300 digits, which Python (3.10.7
    on) does not write by default, each checked by its own oracle."""

    def run(self, capsys, *argv) -> str:
        """One report, exit 0, no error, and the digit limit left as it was."""
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT
        return out

    @pytest.mark.parametrize("graph", [huge_pair, long_chain])
    def test_check_writes_the_determinant(self, graph, capsys, tmp_path):
        text, det = graph()
        path = tmp_path / "big.pg"
        path.write_text(text, encoding="utf-8")
        out = self.run(capsys, "check", "-i", str(path))
        assert out.startswith("vertices: (")
        digits = re.search(r"^determinant: (\d+)$", out, re.M).group(1)
        assert len(digits) > 4300
        with digits_unlimited():
            assert int(digits) == det

    @pytest.mark.parametrize("graph", [huge_pair, long_chain])
    def test_canonical_coefficients_satisfy_integer_row_sums(self, graph, capsys, tmp_path):
        text, _ = graph()
        path = tmp_path / "big.pg"
        path.write_text(text, encoding="utf-8")
        out = self.run(capsys, "canonical", "-i", str(path), "--json")
        with digits_unlimited():
            report = json.loads(out)
            r = [Fraction(x) for x in report["coefficients"]]
            k_squared = Fraction(report["k squared"])
        graph = plumbook.parse_graph(text)
        rhs = [2 * v.genus - 2 - v.euler for v in graph.vertices]
        k = math.lcm(*(x.denominator for x in r))
        assert intersection_rows(graph, [int(k * x) for x in r]) == [k * b for b in rhs]
        assert k_squared == sum(x * b for x, b in zip(r, rhs))

    def test_family_mu_is_the_quartic(self, capsys):
        N = 10 ** 1100 + 2
        out = self.run(capsys, "family", "--N", str(N))
        assert "\nclosed form match: yes\n" in out
        mu, _ = quartics(N)
        digits = re.search(r"^mu: (\d+)$", out, re.M).group(1)
        assert len(digits) > 4300
        with digits_unlimited():
            assert int(digits) == mu

    def test_surgery_takes_mu_and_sigma_from_the_quartics(self, capsys):
        N = 10 ** 1100 + 2
        out = self.run(capsys, "surgery", "--N", str(N), "--chi", "3", "--sigma", "-1",
                       "--json")
        with digits_unlimited():
            report = json.loads(out)
        assert (report["mu"], report["sigma of smoothing"]) == quartics(N)

    def test_a_scale_that_is_no_multiple_of_a_huge_least_one_is_one_short_line(
            self, capsys, tmp_path):
        text, det = huge_pair()
        path = tmp_path / "big.pg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "openbook", "-i", str(path), "--n", "A=1,B=2", "--k", "7")
        # I = [[e, 1], [1, e]] and det I.N = -adj(I).n = (2 - e, 1 - 2e) at n = (1, 2)
        e = -10 ** 4000
        least = det // math.gcd(det, 2 - e, 1 - 2 * e)
        with digits_unlimited():
            shown = str(least)[:20]
        assert (code, out) == (1, "")
        assert err == f"error: scale 7 is not a multiple of the minimal scale {shown}...\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT

    def test_a_family_constraint_on_a_sum_past_the_limit_is_one_short_line(self, capsys):
        t = "9" * (DIGIT_LIMIT or 4300)
        code, out, err = run(capsys, "family", "--N", "5", "--t", t)
        assert (code, out) == (1, "")
        assert err == "error: N-1 = 4 must divide s+t = 10000000000000000000...\n"


NINES = "9" * (DIGIT_LIMIT + 1)
# as many digits as int() reads: valid, but a number derived from it may pass the limit
IN_CAP = "9" * (DIGIT_LIMIT or 4300)
A1 = str(GOLDEN / "a1.pg")


# --n and --sweep read their ints by the parser's rule: a value past the
# digit limit gets one short line that names the limit, not the whole value
@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter has no digit limit for int strings")
@pytest.mark.parametrize("argv, name, shown", [
    (["openbook", "-i", A1, "--n", f"a={NINES}"], "binding value for 'a'", "a=" + NINES[:18]),
    (["family", "--sweep", f"{NINES}..5"], "sweep start", NINES[:20]),
    (["family", "--sweep", f"3..{NINES}"], "sweep end", "3.." + NINES[:17]),
    (["family", "--sweep", f"x..{NINES}"], "sweep end", "x.." + NINES[:17]),
], ids=["n", "sweep-start", "sweep-end", "sweep-end-after-a-bad-start"])
def test_a_value_past_the_digit_limit_is_one_short_error_line(argv, name, shown, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {name} has {DIGIT_LIMIT + 1} digits, more than the "
                   f"interpreter's limit of {DIGIT_LIMIT}; got {shown + '...'!r}\n")
    assert len(err) < 200


INT_FLAGS = {
    "N": ["family", "--N", "{}"],
    "s": ["family", "--N", "5", "--s", "{}"],
    "t": ["family", "--N", "5", "--t", "{}"],
    "k": ["openbook", "-i", A1, "--k", "{}"],
    "mu": ["surgery", "--chi", "1", "--sigma", "1", "--mu", "{}"],
    "chi": ["surgery", "--sigma", "1", "--chi", "{}"],
    "sigma": ["surgery", "--chi", "1", "--sigma", "{}"],
}


def int_flag_argv(flag: str, value: str) -> list[str]:
    return [value if arg == "{}" else arg for arg in INT_FLAGS[flag]]


# the seven int flags read argv by the same rule, as usage errors (exit 64)
@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter has no digit limit for int strings")
@pytest.mark.parametrize("flag", INT_FLAGS)
def test_an_int_flag_past_the_digit_limit_is_a_short_usage_error(flag, capsys):
    code, out, err = run(capsys, *int_flag_argv(flag, NINES))
    assert (code, out) == (64, "")
    assert err.startswith("usage: plumbook ")
    assert err.endswith(f": error: argument --{flag}: value has {DIGIT_LIMIT + 1} digits, "
                        f"more than the interpreter's limit of {DIGIT_LIMIT}; "
                        f"got {NINES[:20] + '...'!r}\n")
    assert len(err.encode()) < 400


@pytest.mark.parametrize("value", ["1.5", ""])
@pytest.mark.parametrize("flag", INT_FLAGS)
def test_a_malformed_int_flag_keeps_its_usage_error(flag, value, capsys):
    code, out, err = run(capsys, *int_flag_argv(flag, value))
    assert (code, out) == (64, "")
    assert err.endswith(f": error: argument --{flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["openbook", "-i", A1, "--n", "a=x"], "binding entry 'a=x' is not of the form id=integer"),
    (["openbook", "-i", A1, "--n", "a"], "binding entry 'a' is not of the form id=integer"),
    (["openbook", "-i", A1, "--n", "=2"], "binding entry '=2' is not of the form id=integer"),
    (["openbook", "-i", A1, "--n", "a=1.5"], "binding entry 'a=1.5' is not of the form id=integer"),
    (["family", "--sweep", "3"], "sweep must look like N1..N2, got '3'"),
    (["family", "--sweep", "3.."], "sweep must look like N1..N2, got '3..'"),
    (["family", "--sweep", "a..5"], "sweep must look like N1..N2, got 'a..5'"),
    (["family", "--sweep", "5..3"], "sweep range '5..3' is empty"),
])
def test_a_malformed_value_within_the_digit_limit_keeps_its_message(argv, message, capsys):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# each mutation of a valid file and what the one error line then says
MUTATIONS = {
    "dropped token": r"expected '(vertex|edge) <id>|unknown directive",
    "duplicate id": r"duplicate vertex id 'v\d+'",
    "undeclared endpoint": r"unknown edge endpoint 'u'",
    "loop": r"loop edge at vertex 'v\d+' is not allowed",
    "repeated edge": r"repeated edge between 'v\d+' and 'v\d+'",
    "negative genus": r"genus must be nonnegative, got -1",
    "non-UTF-8 byte": r"input is not UTF-8: byte 0xff at offset \d+",
    "digit limit": r"'e=' has \d+ digits, more than the interpreter's limit",
    "long invalid id": r"invalid vertex id '!{20}\.\.\.'",
    "long directive": r"unknown directive 'x{20}\.\.\.'",
    "long endpoint": r"unknown edge endpoint 'u{20}\.\.\.'",
    "huge negative genus": r"genus must be nonnegative, got -9{19}\.\.\.",
}


@st.composite
def mutated_files(draw, mutation):
    """(file bytes, faulty line): a valid negative-definite graph, declared
    in a random order among comments and blank lines, with `mutation` on
    one line and every line before it untouched."""
    m = draw(st.integers(2 if mutation == "repeated edge" else 1, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    for u, w in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=3)):
        if u != w and (w, u) not in edges:
            edges.add((u, w))
    degree = [sum(v in edge for edge in edges) for v in range(m)]
    # e = -(deg + 1) makes -I strictly diagonally dominant
    place = {v: p for p, v in enumerate(draw(st.permutations(range(m))))}
    items = [((place[v], 0, v), f"vertex v{v} e={-degree[v] - 1} g={draw(st.integers(0, 2))}")
             for v in range(m)]
    for n, (u, w) in enumerate(sorted(edges)):
        if draw(st.booleans()):
            u, w = w, u
        after = max(place[u], place[w]) + draw(st.integers(0, m))
        items.append(((after, 1, n), f"edge v{u} v{w}"))
    lines = []
    for _, line in sorted(items):
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", "  # indented"]), max_size=1)))
        lines.append(line)

    def pick(prefix):
        return draw(st.sampled_from([t for t, line in enumerate(lines)
                                     if line.startswith(prefix)]))

    if mutation == "dropped token":
        fault = pick("vertex " if m == 1 or draw(st.booleans()) else "edge ")
        tokens = lines[fault].split()
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        lines[fault] = " ".join(tokens)
    elif mutation in ("negative genus", "digit limit", "long invalid id", "huge negative genus"):
        fault = pick("vertex ")
        vid, e, g = lines[fault].split()[1:]
        if mutation == "negative genus":
            g = "g=-1"
        elif mutation == "huge negative genus":
            g = "g=-" + "9" * 4000   # within the digit limit, so it reads as an int
        elif mutation == "long invalid id":
            vid = "!" * 5000
        else:
            e = "e=-" + "9" * (DIGIT_LIMIT + 1)
        lines[fault] = f"vertex {vid} {e} {g}"
    elif mutation == "long directive":
        fault = draw(st.integers(0, len(lines)))
        lines.insert(fault, "x" * 5000)
    elif mutation == "non-UTF-8 byte":
        fault = draw(st.integers(0, len(lines) - 1))
    else:
        after = pick("edge " if mutation == "repeated edge" else "vertex ")
        fault = draw(st.integers(after + 1, len(lines)))
        first, second = lines[after].split()[1:3]
        if mutation == "duplicate id":
            line = f"vertex {first} e=-2 g=0"
        elif mutation == "repeated edge":
            line = f"edge {second} {first}" if draw(st.booleans()) else lines[after]
        else:
            other = {"undeclared endpoint": "u", "long endpoint": "u" * 5000}.get(mutation, first)
            line = f"edge {first} {other}" if draw(st.booleans()) else f"edge {other} {first}"
        lines.insert(fault, line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    encoded = [line.encode() for line in lines]
    if mutation == "non-UTF-8 byte":
        cut = draw(st.integers(0, len(encoded[fault])))
        encoded[fault] = encoded[fault][:cut] + b"\xff" + encoded[fault][cut:]
    return end.encode().join(encoded) + end.encode(), fault + 1


def run_on_stdin(argv: list[str], data: bytes) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(draws=st.data(), subcommand=st.sampled_from(["check", "canonical", "divisor", "openbook"]))
def test_one_mutated_line_is_one_error_line(mutation, draws, subcommand):
    if mutation == "digit limit" and not DIGIT_LIMIT:
        pytest.skip("this interpreter has no digit limit for int strings")
    data, line = draws.draw(mutated_files(mutation))
    code, out, err = run_on_stdin([subcommand, "-i", "-"], data)
    assert (code, out) == (1, ""), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert len(err.encode()) < 200, err[:300]
    assert re.fullmatch(rf"error: line {line}: ({MUTATIONS[mutation]}).*\n", err), err


WAHL = str(GOLDEN / "wahl_253.pg")

# valid command lines, each as its subcommand and its (flag, value) items;
# a value that --n, --sweep or an int flag reads is marked by its flag
VALID_ARGV = [
    ("check", [("-i", A1)]),
    ("canonical", [("-i", A1), ("--json", None)]),
    ("divisor", [("-i", A1)]),
    ("openbook", [("-i", A1), ("--n", "a=2"), ("--json", None)]),
    ("openbook", [("-i", A1), ("--k", "2")]),
    ("family", [("--N", "5")]),
    ("family", [("--s", "3"), ("--t", "117"), ("--N", "5"), ("--json", None)]),
    ("family", [("--sweep", "3..6")]),
    ("surgery", [("--chi", "1"), ("--sigma", "-100"), ("--N", "3")]),
    ("surgery", [("-i", WAHL), ("--mu", "0"), ("--chi", "24"), ("--sigma", "-16")]),
]
INT_VALUED = {"--n", "--sweep", "--N", "--s", "--t", "--k", "--mu", "--chi", "--sigma"}


def _with_int(flag: str, text: str, first: bool) -> str:
    """A value for flag whose int, or first or last int for --sweep, is text."""
    if flag == "--n":
        return "a=" + text
    if flag == "--sweep":
        return f"{text}..6" if first else f"3..{text}"
    return text


@st.composite
def mutated_argv(draw):
    """(argv, whether exit 0 is allowed): a valid command line with one
    near-valid mutation.  Dropping, duplicating or swapping flags may leave
    a valid command line, and so may an int of as many digits as the limit
    allows; every other mutation makes it wrong."""
    subcommand, items = draw(st.sampled_from(VALID_ARGV))
    items = [[flag] if value is None else [flag, value] for flag, value in items]
    kinds = ["drop", "duplicate", "swap"]
    if any(item[0] in INT_VALUED for item in items):
        kinds.append("value")
    if subcommand == "openbook" and items[1][0] == "--n":
        kinds.append("unknown vertex")
    if any(item[0] == "--mu" for item in items):
        kinds.append("wrong mu")
    kind = draw(st.sampled_from(kinds))
    text = None
    at = draw(st.integers(0, len(items) - 1))
    item = items[at]
    if kind == "drop":
        if len(item) == 1 or draw(st.booleans()):
            del items[at]
        else:
            del item[draw(st.integers(0, 1))]
    elif kind == "duplicate":
        copy = list(item) if draw(st.booleans()) else item[:1]
        items.insert(draw(st.integers(0, len(items))), copy)
    elif kind == "swap":
        if len(item) == 2 and draw(st.booleans()):
            item.reverse()
        else:
            other = draw(st.integers(0, len(items) - 1))
            items[at], items[other] = items[other], items[at]
    elif kind == "value":
        target = draw(st.sampled_from([item for item in items if item[0] in INT_VALUED]))
        text = draw(st.sampled_from(["", "x", "1.5", "1e3", "0x10", "5a", "x" * 5000]
                                    + [NINES] * bool(DIGIT_LIMIT) + [IN_CAP]))
        if draw(st.booleans()):   # the value alone, with no 'a=' or '..' around it
            target[1] = text
        else:   # IN_CAP starts a sweep: one that ends there would never finish
            target[1] = _with_int(target[0], text, text == IN_CAP or draw(st.booleans()))
    elif kind == "unknown vertex":
        items[1][1] = draw(st.sampled_from(["zz=2", "a=2,zz=1", "A=2", "n" * 5000 + "=2"]))
    else:
        # mu fits the chain only when p_g = mu/12 is an integer >= 0
        mu = draw(st.integers(-100, 10 ** 6).filter(lambda mu: mu < 0 or mu % 12))
        next(item for item in items if item[0] == "--mu")[1] = str(mu)
    argv = [subcommand] + [token for item in items for token in item]
    return argv, kind in ("drop", "duplicate", "swap") or text == IN_CAP


# no near-valid argv reaches a traceback or the internal-consistency exit,
# and no error line echoes a long value
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_argv())
@example((["family", "--s", "3", "--t", IN_CAP, "--N", "5", "--json"], True))
@example((["family", "--sweep", NINES], False))
@example((["openbook", "-i", A1, "--n", NINES, "--json"], False))
@example((["openbook", "-i", A1, "--n", "n" * 5000 + "=2", "--json"], False))
@example((["family", "--N", "x" * 5000], False))
@example((["check", "-i", A1, "x" * 5000], False))   # argparse's own lines and a file name
@example((["x" * 5000], False))
@example((["check", "-i", "x" * 5000], False))
def test_a_mutated_argv_is_one_error_line_or_the_usage(case):
    argv, may_succeed = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert may_succeed and out and err == "", argv
    elif code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode()) < 200, err[:300]
    else:
        assert code == 64, (argv, code, err)
        assert out == "", argv
        assert err.startswith("usage: plumbook") and ": error: " in err, err
        assert len(err.encode()) < 400, err[:500]


@st.composite
def valid_graphs(draw):
    """(file bytes, Euler numbers, genera, edges as index pairs i < j) of
    a random tree on at most 12 vertices plus up to m/5 extra edges,
    declared in random order with every edge after its endpoints, g in
    {0, 1, 2} and e = -(deg + 1 + s) with s >= 0 of up to a few thousand
    digits, so the graph is strictly diagonally dominant and negative
    definite."""
    m = draw(st.integers(1, 12))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    for _ in range(draw(st.integers(0, m // 5))):
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        pairs.add((min(i, j), max(i, j)))
    degree = [0] * m
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    extra = st.one_of(st.integers(0, 20),
                      st.integers(1, 3000).flatmap(lambda k: st.integers(0, 10 ** k)))
    euler = [-(degree[v] + 1 + draw(extra)) for v in range(m)]
    genus = [draw(st.integers(0, 2)) for _ in range(m)]
    vertex_lines = [f"vertex v{v} e={euler[v]} g={genus[v]}" for v in range(m)]
    lines = [vertex_lines[v] for v in draw(st.permutations(range(m)))]
    for i, j in sorted(pairs):
        after = 1 + max(lines.index(vertex_lines[i]), lines.index(vertex_lines[j]))
        i, j = (i, j) if draw(st.booleans()) else (j, i)
        lines.insert(draw(st.integers(after, len(lines))), f"edge v{i} v{j}")
    return ("\n".join(lines) + "\n").encode(), euler, genus, sorted(pairs)


def plain_graph(report: dict, euler, genus, pairs):
    """The graph in the report's vertex order, as conftest's oracles read it."""
    at = {vid: k for k, vid in enumerate(report["vertices"])}
    assert sorted(at) == sorted(f"v{v}" for v in range(len(euler)))
    order = [int(vid[1:]) for vid in report["vertices"]]
    return SimpleNamespace(
        m=len(order),
        vertices=[SimpleNamespace(euler=euler[v], genus=genus[v]) for v in order],
        edges=[(at[f"v{i}"], at[f"v{j}"]) for i, j in pairs])


# every subcommand on a valid graph exits 0, and its JSON report passes
# integer row sums computed here (ROADMAP, Direction 7)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_graphs(), st.data())
def test_every_report_of_a_valid_graph_passes_its_row_sums(case, draws):
    data, euler, genus, pairs = case
    m = len(euler)
    binding = draws.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    given_n = ",".join(f"v{v}={n}" for v, n in enumerate(binding))
    reports = {}
    for name, argv in [("check", ["check"]), ("canonical", ["canonical"]),
                       ("divisor", ["divisor"]), ("openbook", ["openbook"]),
                       ("openbook --n", ["openbook", "--n", given_n])]:
        code, out, err = run_on_stdin([*argv, "-i", "-", "--json"], data)
        assert (code, err) == (0, ""), (name, err[:300])
        with digits_unlimited():
            reports[name] = json.loads(out)
    with digits_unlimited():
        check = reports["check"]
        graph = plain_graph(check, euler, genus, pairs)
        rows = [[0] * m for _ in range(m)]
        for k, vertex in enumerate(graph.vertices):
            rows[k][k] = vertex.euler
        for i, j in graph.edges:
            rows[i][j] = rows[j][i] = 1
        assert Fraction(check["determinant"]) == bareiss_determinant(rows)

        canonical = reports["canonical"]
        graph = plain_graph(canonical, euler, genus, pairs)
        rhs = [2 * v.genus - 2 - v.euler for v in graph.vertices]
        assert canonical["adjunction rhs"] == rhs
        r = [Fraction(x) for x in canonical["coefficients"]]
        k = math.lcm(*(x.denominator for x in r))
        assert intersection_rows(graph, [int(k * x) for x in r]) == [k * b for b in rhs]
        assert Fraction(canonical["k squared"]) == sum(x * b for x, b in zip(r, rhs))

        divisor = reports["divisor"]
        graph = plain_graph(divisor, euler, genus, pairs)
        d, n = divisor["divisor"], divisor["binding"]
        products = intersection_rows(graph, d)
        thresholds = feasibility_thresholds(graph)
        assert products == [-x for x in n] and min(n) >= 1
        for v, (row, threshold) in enumerate(zip(products, thresholds)):
            assert row <= threshold, v
            assert d[v] == 1 or row - graph.vertices[v].euler > threshold, v
        assert divisor["condition holds"] is True

        for name in ("openbook", "openbook --n"):
            book = reports[name]
            graph = plain_graph(book, euler, genus, pairs)
            n = book["binding"]
            assert intersection_rows(graph, book["multiplicities"]) == [-book["k"] * x for x in n]
        assert reports["openbook --n"]["binding"] == [binding[int(vid[1:])] for vid in
                                                      reports["openbook --n"]["vertices"]]
        assert reports["openbook"]["multiplicities"] == d


def json_report(argv: list[str]) -> dict:
    """The `--json` report of one command line that exits 0 with no error."""
    code, out, err = run_on_stdin([*argv, "--json"], b"")
    assert (code, err) == (0, ""), (argv[:2], err[:300])
    with digits_unlimited():
        return json.loads(out)


GCD_FAILS = "gcd(N-1, t) = 3, expected 1"   # t = 30N - 33 = 30(N-1) - 3


# family and surgery on valid argv, with N small or of up to 1,001 digits:
# the guard on the closed forms' integrality and on the second genus
@settings(max_examples=300, deadline=None, derandomize=True)
@given(N=st.one_of(st.integers(3, 60),
                   st.builds(lambda k, r: 10 ** k + r, st.integers(1, 1000), st.integers(-7, 7))),
       chi=st.integers(-10 ** 6, 10 ** 6), sigma=st.integers(-10 ** 6, 10 ** 6),
       width=st.integers(0, 11))
def test_family_and_surgery_follow_the_quartics(N, chi, sigma, width):
    surgery_argv = ["surgery", "--N", str(N), "--chi", str(chi), "--sigma", str(sigma)]
    if (N - 1) % 3 == 0:
        for argv in (["family", "--N", str(N), "--json"], surgery_argv):
            assert run_on_stdin(argv, b"") == (1, "", f"error: {GCD_FAILS}\n")
    else:
        family = json_report(["family", "--N", str(N)])
        mu, sigma_w = quartics(N)
        assert sigma_w.denominator == 1 and type(family["sigma"]) is int
        assert (family["mu"], family["sigma"]) == (mu, sigma_w)
        g_a, g_b = N - 2, (15 * N - 17) * (N - 2)
        assert family["genera"] == [g_a, g_b]
        assert (family["m"], family["h"]) == (2, 2 * (g_a + g_b))
        assert family["closed form match"] is True

        surgery = json_report(surgery_argv)
        total_chi = chi - (2 * (2 - g_a - g_b) - 1) + 1 + mu
        total_sigma = sigma + 2 + sigma_w
        assert (surgery["mu"], surgery["sigma of smoothing"]) == (mu, sigma_w)
        assert (surgery["chi"], surgery["sigma"]) == (total_chi, total_sigma)
        assert surgery["c1 squared"] == 2 * total_chi + 3 * total_sigma
        assert Fraction(surgery["chi_h"]) == Fraction(total_chi + total_sigma, 4)

    sweep = json_report(["family", "--sweep", f"{N}..{N + width}"])["sweep"]
    assert [member["N"] for member in sweep] == list(range(N, N + width + 1))
    for member in sweep:
        n = member["N"]
        if (n - 1) % 3 == 0:
            assert member == {"N": n, "skipped": GCD_FAILS}
        else:
            assert member == json_report(["family", "--N", str(n)])


# argv that end in argparse: usage errors (exit 64) and help (exit 0)
PARSER_EXITS = [
    ["frobnicate"],
    [],
    ["check", "-i", str(GOLDEN / "a1.pg"), "--frobnicate"],
    ["check", "-i", str(GOLDEN / "a1.pg"), "extra"],
    # argparse's own parse_args cuts a long leftover as main does
    pytest.param(["check", "-i", str(GOLDEN / "a1.pg"), "x" * 5000],
                 id="check -i a1.pg 5000-char-leftover"),
    ["check"],
    ["divisor", "-i"],
    ["family", "--N", "x"],
    ["openbook", "-i", str(GOLDEN / "a1.pg"), "--k", "1.5"],
    ["surgery", "--N", "3", "--chi", "1"],
    ["--help"],
    *([name, "--help"] for name in ("check", "canonical", "divisor", "openbook",
                                     "family", "surgery")),
]


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    """`python -m plumbook.cli argv` in a new interpreter."""
    package_root = Path(plumbook.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root), COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "plumbook.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    return done.returncode, done.stdout, done.stderr


class TestParserReuse:
    """`main` builds the parser once per process; no call may see another's state."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_every_golden_argv_twice(self, capsys):
        for _ in range(2):
            for case in sorted(CASES):
                code, out, err = run(capsys, *CASES[case])
                assert (code, err) == (0, ""), case
                assert out == (GOLDEN / case).read_text(encoding="utf-8"), case

    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_parser_exit_twice_matches_a_fresh_process(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        ok_argv = CASES["a1/openbook-n.json"]
        ok_out = (GOLDEN / "a1/openbook-n.json").read_text(encoding="utf-8")
        expected = fresh_process(argv)
        assert expected[0] in (0, 64), expected
        for _ in range(2):
            assert run(capsys, *ok_argv) == (0, ok_out, "")
            assert run(capsys, *argv) == expected
        # main hands argv to the subcommand's parser; the full one must agree
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(argv)
        assert (caught.value.code, *capsys.readouterr()) == expected

    def test_abbreviated_flag_reaches_the_subcommand(self, capsys):
        code, out, err = run(capsys, "divisor", "--js", "-i", str(GOLDEN / "a1.pg"))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "a1/divisor.json").read_text(encoding="utf-8")


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared `plumbook` script runs as its own process.

        The script is built here the way an installer writes it, from the
        `[project.scripts]` entry in this tree's pyproject.toml, and runs
        against the same `plumbook` package the suite imported.  Looking
        the script up on PATH would test whatever install happens to be
        there instead of this source tree.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        module, attr = project["project"]["scripts"]["plumbook"].split(":")
        exe = tmp_path / "plumbook"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n",
            encoding="utf-8")
        exe.chmod(0o755)
        # the directory holding the imported package (src/ in a checkout)
        package_root = Path(plumbook.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(package_root))
        result = subprocess.run([str(exe), "family", "--N", "3"],
                                capture_output=True, text=True, timeout=60,
                                env=env)
        assert result.returncode == 0, result.stderr
        assert "closed form match: yes" in result.stdout, result.stderr


class TestStartup:
    """`import plumbook.cli` loads nothing that some subcommand never uses."""

    DEFERRED = ("dataclasses", "hashlib", "inspect", "json")

    def test_modules_loaded_at_import_and_per_subcommand(self):
        # -S keeps site's own imports from loading any of them first
        a1 = str(GOLDEN / "a1.pg")
        script = (
            "import sys\n"
            "from plumbook.cli import main\n"
            f"deferred = {self.DEFERRED!r}\n"
            "def loaded():\n"
            "    print([name for name in deferred if name in sys.modules], file=sys.stderr)\n"
            "loaded()\n"
            f"assert main(['check', '-i', {a1!r}]) == 0\n"
            "loaded()\n"
            f"assert main(['openbook', '-i', {a1!r}]) == 0\n"
            "loaded()\n"
            f"assert main(['openbook', '-i', {a1!r}, '--json']) == 0\n"
            "loaded()\n")
        package_root = Path(plumbook.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(package_root))
        done = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [
            "[]",                       # after the import
            "[]",                       # after check
            "['hashlib']",              # after openbook, for its certificate
            "['hashlib', 'json']",      # after the first JSON report
        ]
