"""Independent oracles for plumbook's numbers, in the standard library only.

Nothing here imports plumbook or shares code with `src/`; the tests,
`scripts/check_rows.py` and the CI workflow check the program against
these: row sums and feasibility thresholds, Leibniz, Bareiss and tree
continuant determinants, and a reader and writers of graph files.  A
graph is Euler numbers, genera and edges as index pairs; `Graph` adds ids.
"""

from __future__ import annotations

import itertools
import random
import re
from math import lcm, prod
from typing import NamedTuple


class Graph(NamedTuple):
    ids: list[str]
    euler: list[int]
    genus: list[int]
    pairs: list[tuple[int, int]]   # the edges as index pairs, in file order


def degrees(m: int, pairs) -> list[int]:
    degree = [0] * m
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    return degree


def thresholds(genus, pairs) -> list[int]:
    """c_v with: d >= 1 is a feasible divisor iff (I.d)_v <= c_v at every v.
    (D + E + K).E_v + 2 <= 0 collapses, once the adjunction cancels e_v, to
    (I.d)_v <= -(deg_v + 2 g_v); a positive binding adds (I.d)_v <= -1."""
    return [min(-(d + 2 * g), -1) for d, g in zip(degrees(len(genus), pairs), genus)]


def sparse_rows(euler, pairs) -> list[dict[int, int]]:
    """The intersection matrix, one {column: entry} dict a row."""
    rows = [{i: e} for i, e in enumerate(euler)]
    for i, j in pairs:
        rows[i][j] = rows[j][i] = 1
    return rows


def dense_rows(euler, pairs) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(len(euler))] for row in sparse_rows(euler, pairs)]


def row_sums(rows, x) -> list:
    """rows.x for {column: entry} rows, exact for ints and Fractions."""
    return [sum(a * x[j] for j, a in row.items()) for row in rows]


def solves(rows, x, b) -> bool:
    """rows.x = b for Fractions x, in integers: rows.(k x) = k b with k the
    least common denominator of x."""
    k = lcm(*(f.denominator for f in x))
    return row_sums(rows, [int(k * f) for f in x]) == [k * c for c in b]


def leibniz_determinant(rows) -> int:
    """The permutation sum, for a handful of rows."""
    n, total = len(rows), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def bareiss_determinant(rows) -> int:
    """Fraction-free Gaussian elimination over the integers (Bareiss 1968),
    bringing up a later row when a pivot is zero."""
    a = [list(r) for r in rows]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def subtree_determinants(euler, pairs) -> list[tuple[int, int]]:
    """(det I[T_v], |T_v|) at every vertex v of a tree, T_v being v and the
    vertices below it with the tree hung from vertex 0; ValueError if the
    graph is no tree.  The continuant from the leaves up (Neumann 1981):
    with P the product of the children's det I[T_c] and P_c that of c's
    children, det I[T_v] = e_v P - sum over children c of P_c P / det I[T_c],
    since each edge v c closes one 2-cycle of sign -1.  O(m) products."""
    m = len(euler)
    neighbours = [[] for _ in range(m)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    parent, order = [None] * m, [0]
    for v in order:                  # breadth first: a parent before its children
        for u in neighbours[v]:
            if u and parent[u] is None:
                parent[u] = v
                order.append(u)
    if len(pairs) != m - 1 or len(order) != m:
        raise ValueError("not a tree")
    product, spliced, size, delta = [1] * m, [0] * m, [1] * m, [0] * m
    for v in reversed(order):
        delta[v] = euler[v] * product[v] - spliced[v]
        p = parent[v]
        if p is not None:
            spliced[p] = spliced[p] * delta[v] + product[v] * product[p]
            product[p] *= delta[v]
            size[p] += size[v]
    return list(zip(delta, size))


def tree_determinant(euler, pairs) -> int:
    return subtree_determinants(euler, pairs)[0][0]


def negative_definite_tree(euler, pairs) -> bool:
    """sign det I[T_v] = (-1)^|T_v| at every v.  Each prefix of a leaves-up
    order is a disjoint union of whole subtrees, so Sylvester's criterion
    reads these signs; conversely each I[T_v] of a definite I is definite."""
    return all((-1) ** size * delta > 0 for delta, size in subtree_determinants(euler, pairs))


class GraphFileError(ValueError):
    """A line of a graph file that the reader cannot read, by its number."""


_VERTEX = re.compile(r"vertex ([A-Za-z0-9_]+) e=(-?[0-9]+) g=([0-9]+)")
_EDGE = re.compile(r"edge ([A-Za-z0-9_]+) ([A-Za-z0-9_]+)")


def read_graph(text: str) -> Graph:
    """The graph of a file of `vertex <id> e=<int> g=<uint>` and `edge <id>
    <id>` lines, ending at LF, CR LF or CR, with blank lines and '#'
    comments.  GraphFileError at any other line, at a repeated vertex or
    edge, an edge to an undeclared vertex or to itself, and at an integer
    past the interpreter's digit limit."""
    graph, index, seen = Graph([], [], [], []), {}, set()
    for number, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        words = " ".join(line.split("#", 1)[0].split())
        vertex, edge = _VERTEX.fullmatch(words), _EDGE.fullmatch(words)
        vertex = vertex if vertex and vertex[1] not in index else None
        try:
            numbers = vertex and (int(vertex[2]), int(vertex[3]))
        except ValueError:           # past the interpreter's digit limit
            numbers = None
        if numbers:
            index[vertex[1]] = len(graph.ids)
            graph.ids.append(vertex[1])
            graph.euler.append(numbers[0])
            graph.genus.append(numbers[1])
        elif edge and {edge[1], edge[2]} <= index.keys() and edge[1] != edge[2] \
                and frozenset(edge.groups()) not in seen:
            seen.add(frozenset(edge.groups()))
            graph.pairs.append((index[edge[1]], index[edge[2]]))
        elif words:
            raise GraphFileError(f"line {number}: cannot read {words[:40]!r}")
    return graph


def graph_text(graph: Graph) -> str:
    """The graph as a plain file: its vertex lines in order, then its edges."""
    lines = [f"vertex {v} e={e} g={g}\n" for v, e, g in zip(graph.ids, graph.euler, graph.genus)]
    return "".join(lines + [f"edge {graph.ids[i]} {graph.ids[j]}\n" for i, j in graph.pairs])


def chain(euler) -> Graph:
    """The chain c0 - c1 - ... with the given Euler numbers, every genus 0."""
    m = len(euler)
    return Graph([f"c{i}" for i in range(m)], list(euler), [0] * m,
                 [(i, i + 1) for i in range(m - 1)])


def grids(k: int, names: str = "g") -> Graph:
    """A k x k grid for each letter of `names`, vertices <letter><row>_<column>
    in row order with e=-5 and g=0, each one's edges right, then down."""
    cells = [(p, r, c) for p in names for r in range(k) for c in range(k)]
    pairs = [(n, n + step) for n, (_, r, c) in enumerate(cells)
             for step, inside in ((1, c + 1 < k), (k, r + 1 < k)) if inside]
    return Graph([f"{p}{r}_{c}" for p, r, c in cells], [-5] * len(cells), [0] * len(cells), pairs)


def random_tree(m: int, seed: int) -> Graph:
    """The random recursive tree on v0, v1, ...: each v >= 1 joined to an earlier
    vertex drawn by `random.Random(seed)`; e_v = -deg_v - 1, g_v = v mod 3."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, m)]
    return Graph([f"v{v}" for v in range(m)], [-d - 1 for d in degrees(m, pairs)],
                 [v % 3 for v in range(m)], pairs)
