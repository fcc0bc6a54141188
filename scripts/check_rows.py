"""Check a `divisor --json` or `openbook --json` report by integer row sums.

    python scripts/check_rows.py GRAPH REPORT

GRAPH is the plain graph file the report was made from (`vertex ID e=E
g=G` and `edge U V` lines), REPORT the JSON report.  The check reads both
itself and imports nothing from plumbook.  For every vertex v, with row
(I.d)_v = e_v d_v + sum of d_u over the neighbours u of v:

- row = -n_v with n_v >= 1, the binding;
- row <= min(-(deg_v + 2 g_v), -1), the divisor's threshold;
- d_v = 1 or row - e_v > threshold: no entry can be lowered alone.

A `divisor` report must also give slack_v = deg_v + 2 g_v - n_v <= 0 and
`condition holds`; an `openbook` report must give multiplicities equal to
its divisor and its certificate's divisor, and k = 1 in both places.
Exits 1 with the first failure, 0 after printing a summary line.
"""

from __future__ import annotations

import json
import sys


def read_graph(path: str) -> tuple[dict, dict, dict]:
    """The Euler numbers, genera and neighbour lists by vertex id."""
    euler, genus, neighbours = {}, {}, {}
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == "vertex":
                vid = fields[1]
                euler[vid] = int(fields[2].removeprefix("e="))
                genus[vid] = int(fields[3].removeprefix("g="))
                neighbours[vid] = []
            else:
                neighbours[fields[1]].append(fields[2])
                neighbours[fields[2]].append(fields[1])
    return euler, genus, neighbours


class Failed(Exception):
    """A check that does not hold."""


def require(holds: bool, message: str) -> None:
    if not holds:
        raise Failed(message)


def check(graph_path: str, report_path: str) -> str:
    """A summary line, or Failed at the first check that does not hold."""
    euler, genus, neighbours = read_graph(graph_path)
    with open(report_path) as fh:
        report = json.load(fh)
    ids = report["vertices"]
    require(sorted(ids) == sorted(euler), "the report's vertices are not the graph's")
    d = dict(zip(ids, report["divisor"]))
    n = dict(zip(ids, report["binding"]))
    slack = dict(zip(ids, report["slacks"])) if "slacks" in report else None
    for v in ids:
        row = euler[v] * d[v] + sum(d[u] for u in neighbours[v])
        degree = len(neighbours[v])
        threshold = min(-(degree + 2 * genus[v]), -1)
        require(row == -n[v] and n[v] >= 1, f"vertex {v}: row {row}, binding {n[v]}")
        require(row <= threshold, f"vertex {v}: row {row} above its threshold {threshold}")
        require(d[v] == 1 or row - euler[v] > threshold,
                f"vertex {v}: entry {d[v]} can be lowered alone")
        if slack is not None:
            require(slack[v] == degree + 2 * genus[v] - n[v] <= 0,
                    f"vertex {v}: slack {slack[v]}")
    if slack is not None:
        require(report["condition holds"] is True, "condition holds is not true")
    else:
        certificate = report["certificate"]
        require(report["multiplicities"] == report["divisor"] == certificate["divisor"],
                "multiplicities, divisor and certificate divisor differ")
        require(report["k"] == certificate["k"] == 1, "k is not 1")
    return f"row sums hold at all {len(ids)} vertices; largest entry {max(d.values())}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/check_rows.py GRAPH REPORT", file=sys.stderr)
        return 64
    try:
        print(check(*argv))
    except Failed as exc:
        print(f"error: {argv[1]}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
