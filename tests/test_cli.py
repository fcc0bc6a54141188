import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plumbook
from plumbook.cli import build_parser, main

from .conftest import intersection_rows, is_feasible
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


# argv that end in argparse: usage errors (exit 64) and help (exit 0)
PARSER_EXITS = [
    ["frobnicate"],
    [],
    ["check", "-i", str(GOLDEN / "a1.pg"), "--frobnicate"],
    ["check"],
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
