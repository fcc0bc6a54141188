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
