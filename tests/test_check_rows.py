"""`scripts/check_rows.py`, CI's row-sum oracle for `divisor --json` and
`openbook --json` reports, run as CI runs it: in its own process, on
golden reports and on copies with one fault each."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from plumbook import parse_graph

from .oracles import graph_text, read_graph
from .test_golden import GOLDEN

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_rows.py"
GRAPHS = ["family_n3", "star24"]
REPORTS = ["divisor", "openbook"]


def check_rows(*paths) -> tuple[int, str, str]:
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def golden(graph: str, report: str) -> tuple[Path, dict]:
    path = GOLDEN / graph / f"{report}.json"
    return path, json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_a_golden_report_passes(graph, report):
    path, data = golden(graph, report)
    summary = (f"row sums hold at all {len(data['vertices'])} vertices; "
               f"largest entry {max(data['divisor'])}\n")
    assert check_rows(GOLDEN / f"{graph}.pg", path) == (0, summary, "")


def raise_first_entry(data: dict) -> None:
    data["divisor"][0] += 1


def change_first_binding(data: dict) -> None:
    data["binding"][0] += 1


def double_k(data: dict) -> None:
    data["k"] *= 2


# each fault and the failure it must be named by; a raised entry or a
# changed binding breaks the first vertex's row, which is checked first
FAULTS = {
    "divisor entry raised": (raise_first_entry, r"vertex {v}: row -?\d+, binding {n}"),
    "binding entry changed": (change_first_binding, r"vertex {v}: row -?\d+, binding {n}"),
    "k doubled": (double_k, r"k is not 1"),
}


@pytest.mark.parametrize("graph, report, fault", [
    (graph, report, fault) for graph in GRAPHS for report in REPORTS for fault in FAULTS
    if not (report == "divisor" and fault == "k doubled")])   # a divisor report has no k
def test_a_report_with_one_fault_fails(graph, report, fault, tmp_path):
    _, data = golden(graph, report)
    mutate, named = FAULTS[fault]
    mutate(data)
    path = tmp_path / f"{report}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    code, out, err = check_rows(GOLDEN / f"{graph}.pg", path)
    assert (code, out) == (1, "")
    named = named.format(v=re.escape(data["vertices"][0]), n=data["binding"][0])
    assert re.fullmatch(rf"error: {re.escape(str(path))}: {named}\n", err), err


def test_one_argument_is_a_usage_error():
    assert check_rows(GOLDEN / "star24.pg") == (
        64, "", "usage: python scripts/check_rows.py GRAPH REPORT\n")


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_comments_and_blank_lines_in_the_graph_are_skipped(graph, report, tmp_path):
    text = (GOLDEN / f"{graph}.pg").read_text(encoding="utf-8")
    lines = ["# a comment", ""] + [f"{line}  # ends in a comment\n" for line in text.splitlines()]
    path = tmp_path / f"{graph}.pg"
    path.write_text("\n".join(lines + ["  "]), encoding="utf-8")
    # plumbook and the oracles' reader both take it as the golden graph
    assert parse_graph(path.read_text(encoding="utf-8")) == parse_graph(text)
    assert graph_text(read_graph(path.read_text(encoding="utf-8"))) == text
    code, out, err = check_rows(path, GOLDEN / graph / f"{report}.json")
    assert (code, err) == (0, "")
    assert out.startswith("row sums hold at all ")


# each a fourth line after family_n3's three
UNREADABLE = {
    "no genus": "vertex C e=-2", "extra field": "vertex C e=-2 g=0 extra",
    "bad Euler number": "vertex C e=x g=0", "negative genus": "vertex C e=-2 g=-1",
    "invalid id": "vertex C! e=-2 g=0", "repeated vertex": "vertex A e=-2 g=0",
    "one endpoint": "edge A", "undeclared endpoint": "edge A Z", "loop": "edge A A",
    "repeated edge": "edge B A", "unknown directive": "node C",
    "int past the digit limit": "vertex C e=-1" + "0" * 5000 + " g=0", "long line": "x" * 5000,
}


@pytest.mark.parametrize("line", UNREADABLE.values(), ids=list(UNREADABLE))
def test_a_graph_line_that_cannot_be_read_is_one_error_line(line, tmp_path):
    path = tmp_path / "family_n3.pg"
    path.write_text((GOLDEN / "family_n3.pg").read_text(encoding="utf-8") + line + "\n",
                    encoding="utf-8")
    code, out, err = check_rows(path, GOLDEN / "family_n3" / "divisor.json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: line 4: cannot read ")
    assert err.count("\n") == 1 and len(err) < 200 + len(str(path)) and "Traceback" not in err
