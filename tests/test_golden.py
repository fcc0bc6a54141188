"""Byte-for-byte guard on every report the graph subcommands print.

`tests/golden/` holds one graph file per case and, next to it, a directory
with the expected standard output of `check`, `canonical`, `divisor`,
`openbook` and `openbook --n`, each as text and as `--json`.  The graphs
are the fixed corpus of `conftest.py` plus a 24-vertex Hirzebruch-Jung
chain and a three-legged star, both with determinants of more than 40
digits, the Wahl chain (-2, -5, -3) with |det| = 25 = 5^2, and the
family and surgery reports on top.  A change to the
arithmetic underneath must leave every one of these bytes alone.

The expected files were written once by this module's generator and are
never rewritten to make a test pass:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from plumbook import PlumbingGraph, parse_graph, serialize_graph
from plumbook.cli import main

from .conftest import _fixed_graphs
from .oracles import chain, graph_text

GOLDEN = Path(__file__).resolve().parent / "golden"


def _chain() -> PlumbingGraph:
    """Entries 40..140 of a 24-term negative continued fraction."""
    return parse_graph(graph_text(chain([-(40 + (37 * i) % 101) for i in range(24)])))


def _star() -> PlumbingGraph:
    """Centre of weight -7 and genus 1 with three legs of 7, 8 and 8."""
    vertices = [("z", -7, 1)]
    edges = []
    for leg, length in enumerate((7, 8, 8)):
        previous = "z"
        for k in range(length):
            name = f"l{leg}_{k}"
            vertices.append((name, -(30 + (53 * (leg + 1) + 29 * k) % 89), k % 2))
            edges.append((previous, name))
            previous = name
    return PlumbingGraph(vertices, edges)


def _wahl() -> PlumbingGraph:
    """The Wahl chain (-2, -5, -3): its Milnor fiber is a rational ball."""
    vertices = [(f"w{i}", e, 0) for i, e in enumerate((-2, -5, -3))]
    return PlumbingGraph(vertices, [("w0", "w1"), ("w1", "w2")])


def _graphs() -> dict[str, PlumbingGraph]:
    graphs = dict(_fixed_graphs())
    graphs["hj_chain24"] = _chain()
    graphs["star24"] = _star()
    graphs["wahl_253"] = _wahl()
    return graphs


def _binding_arg(graph: PlumbingGraph) -> str:
    return ",".join(f"{vid}={1 + i % 3}" for i, vid in enumerate(graph.ids))


def _graph_cases(name: str, graph: PlumbingGraph) -> dict[str, list[str]]:
    path = str(GOLDEN / f"{name}.pg")
    commands = {
        "check": ["check", "-i", path],
        "canonical": ["canonical", "-i", path],
        "divisor": ["divisor", "-i", path],
        "openbook": ["openbook", "-i", path],
        "openbook-n": ["openbook", "-i", path, "--n", _binding_arg(graph)],
    }
    cases = {}
    for key, argv in commands.items():
        cases[f"{name}/{key}.txt"] = argv
        cases[f"{name}/{key}.json"] = argv + ["--json"]
    return cases


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, graph in _graphs().items():
        cases.update(_graph_cases(name, graph))
    family = str(GOLDEN / "family_n3.pg")
    cases["other/family-N5.txt"] = ["family", "--N", "5"]
    cases["other/family-N5.json"] = ["family", "--N", "5", "--json"]
    cases["other/family-s1-t3-N3.txt"] = ["family", "--s", "1", "--t", "3", "--N", "3"]
    cases["other/family-sweep.json"] = ["family", "--sweep", "3..12", "--json"]
    cases["other/surgery-N3.txt"] = ["surgery", "--chi", "1", "--sigma", "-100",
                                     "--N", "3"]
    cases["other/surgery-N3.json"] = ["surgery", "--chi", "1", "--sigma", "-100",
                                      "--N", "3", "--json"]
    cases["other/surgery-graph.txt"] = ["surgery", "--chi", "100", "--sigma", "-20",
                                        "-i", family, "--mu", "13"]
    cases["other/surgery-graph.json"] = ["surgery", "--chi", "100", "--sigma", "-20",
                                         "-i", family, "--mu", "13", "--json"]
    wahl = ["surgery", "-i", str(GOLDEN / "wahl_253.pg"), "--mu", "0",
            "--chi", "24", "--sigma", "-16"]
    cases["other/surgery-wahl.txt"] = wahl
    cases["other/surgery-wahl.json"] = wahl + ["--json"]
    return cases


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


CASES = _cases()


def test_graph_files_match_the_corpus():
    for name, graph in _graphs().items():
        text = (GOLDEN / f"{name}.pg").read_text(encoding="utf-8")
        assert text == serialize_graph(graph), name


def test_large_cases_have_long_determinants():
    for name in ("hj_chain24", "star24"):
        text = (GOLDEN / name / "check.txt").read_text(encoding="utf-8")
        line = next(line for line in text.splitlines()
                    if line.startswith("determinant: "))
        assert len(line.split(": ")[1].lstrip("-")) > 40, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_byte_identical(case):
    expected = (GOLDEN / case).read_bytes().decode("utf-8")
    assert _stdout(CASES[case]) == expected


def _regenerate() -> None:
    for name, graph in _graphs().items():
        (GOLDEN / f"{name}.pg").write_text(serialize_graph(graph), encoding="utf-8")
    for case, argv in CASES.items():
        target = GOLDEN / case
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(_stdout(argv).encode("utf-8"))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _regenerate()
