"""Check a `divisor --json` or `openbook --json` report by integer row sums.

    python scripts/check_rows.py GRAPH REPORT

GRAPH is the plain graph file the report was made from (`vertex ID e=E
g=G` and `edge U V` lines, blank lines and `#` comments), REPORT the JSON
report.  The graph reader, the row sums, the degrees and the thresholds
are the independent oracles of `tests/oracles.py`; neither that module
nor this script imports plumbook.  For every vertex v, with row (I.d)_v =
e_v d_v + sum of d_u over the neighbours u of v:

- row = -n_v with n_v >= 1, the binding;
- row <= min(-(deg_v + 2 g_v), -1), the divisor's threshold;
- d_v = 1 or row - e_v > threshold: no entry can be lowered alone.

A `divisor` report must also give slack_v = deg_v + 2 g_v - n_v <= 0 and
`condition holds`; an `openbook` report must give multiplicities equal to
its divisor and its certificate's divisor, and k = 1 in both places.
Exits 1 with the first failure, or with `error: GRAPH: line N: ...` on a
graph line the reader cannot read, and 0 after printing a summary line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import (GraphFileError, degrees, read_graph, row_sums,  # noqa: E402
                           sparse_rows, thresholds)


class Failed(Exception):
    """A check that does not hold."""


def require(holds: bool, message: str) -> None:
    if not holds:
        raise Failed(message)


def check(graph_path: str, report_path: str) -> str:
    """A summary line, or Failed at the first check that does not hold."""
    with open(graph_path) as fh:
        graph = read_graph(fh.read())
    with open(report_path) as fh:
        report = json.load(fh)
    require(sorted(report["vertices"]) == sorted(graph.ids),
            "the report's vertices are not the graph's")
    at = {v: k for k, v in enumerate(report["vertices"])}
    d, n, slack = ([report[key][at[v]] for v in graph.ids] if key in report else None
                   for key in ("divisor", "binding", "slacks"))
    rows = row_sums(sparse_rows(graph.euler, graph.pairs), d)
    limits = zip(graph.ids, graph.euler, graph.genus, degrees(len(d), graph.pairs),
                 thresholds(graph.genus, graph.pairs))
    for v, (vid, e, g, degree, threshold) in enumerate(limits):
        row = rows[v]
        require(row == -n[v] and n[v] >= 1, f"vertex {vid}: row {row}, binding {n[v]}")
        require(row <= threshold, f"vertex {vid}: row {row} above its threshold {threshold}")
        require(d[v] == 1 or row - e > threshold,
                f"vertex {vid}: entry {d[v]} can be lowered alone")
        if slack is not None:
            require(slack[v] == degree + 2 * g - n[v] <= 0, f"vertex {vid}: slack {slack[v]}")
    if slack is not None:
        require(report["condition holds"] is True, "condition holds is not true")
    else:
        certificate = report["certificate"]
        require(report["multiplicities"] == report["divisor"] == certificate["divisor"],
                "multiplicities, divisor and certificate divisor differ")
        require(report["k"] == certificate["k"] == 1, "k is not 1")
    return f"row sums hold at all {len(d)} vertices; largest entry {max(d)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/check_rows.py GRAPH REPORT", file=sys.stderr)
        return 64
    try:
        print(check(*argv))
    except GraphFileError as exc:
        print(f"error: {argv[0]}: {exc}", file=sys.stderr)
        return 1
    except Failed as exc:
        print(f"error: {argv[1]}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
