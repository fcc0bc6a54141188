"""Plumbing graphs: weighted-graph model, text format, derived data.

A plumbing graph is a finite connected graph whose vertex v carries an
Euler number e_v (self-intersection, an integer) and a genus g_v >= 0,
and whose intersection matrix is negative definite.  Loops and
multi-edges are forbidden: two curves meet in at most one point and a
curve does not meet itself in this configuration model.  A
`PlumbingGraph` that exists is valid: its constructor checks all of
this and keeps the factorization it checked definiteness with.  The
parser checks each line by the constructor's own rules and messages.

Text format (UTF-8, line oriented)::

    vertex <id> e=<int> g=<uint>
    edge <id> <id>

Lines end at LF, CR LF or CR only: a form feed or a Unicode line
separator inside a line is whitespace.  '#' starts a comment, blank
lines are ignored, ids match [A-Za-z0-9_]+, and a vertex must be
declared before any edge mentions it.  Vertex declaration order is
significant: it fixes the order of every vector indexed by vertices and
of every report.  It does not fix the order in which the intersection
matrix is factored: the constructor eliminates by minimum degree,
whatever the file's order.  The canonical serializer emits vertices in
declaration order followed by edges sorted lexicographically.
"""

from __future__ import annotations

import heapq
import re
import sys
from bisect import bisect_left
from typing import Iterable, NamedTuple

from .errors import ParseError, ValidationError
from .rational import Elimination, eliminate_upper

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_LINE_END_RE = re.compile(r"\r\n?|\n")


class Vertex(NamedTuple):
    id: str
    euler: int
    genus: int


class PlumbingGraph:
    """Immutable, connected, negative-definite vertex-weighted graph.

    The constructor checks the structure, then connectivity, then
    negative definiteness by one symmetric elimination of the
    intersection matrix in minimum-degree order, and raises
    ValidationError on the first failure.  A definiteness failure names
    the vertex that closes the first leading block, in declaration order,
    that is not negative definite (another order can stop elsewhere).
    Euler numbers and genera must be ints (a bool or a float is
    rejected).  Euler numbers are not sign-checked on their own: a
    nonnegative e_v always surfaces as a definiteness failure.

    Everything derived is fixed at construction: `ids`, `adjacency`
    (neighbor indices per vertex, ascending), `degrees`, `factors` (the
    elimination, from which the determinant and every exact solve are
    read), `cycle_rank`, `h`, the first-Betti rank of the glued-up curve
    configuration (2*sum(genus) plus one per independent cycle), and
    `chi_neighborhood`, the Euler characteristic of a regular
    neighborhood of the configuration (sum(2 - 2*g_v) minus one per
    intersection point).
    """

    def __init__(self, vertices: Iterable, edges: Iterable[tuple[str, str]] = ()):
        declared = _Declarations()
        for v in vertices:
            try:
                v = v if isinstance(v, Vertex) else Vertex(*v)
            except TypeError:
                raise ValidationError(f"expected a vertex (<id>, <e>, <g>), got {v!r}") from None
            declared.name(v.id)
            declared.vertex(v)
        if not declared.vertices:
            raise ValidationError("a plumbing graph needs at least one vertex")
        for edge in edges:
            try:
                u, w = edge
            except (TypeError, ValueError):
                raise ValidationError(f"expected an edge (<id>, <id>), got {edge!r}") from None
            declared.edge(u, w)
        self._derive(declared)

    def _derive(self, declared: _Declarations) -> None:
        """Everything derived from declarations that passed the rules."""
        verts = declared.vertices
        self.vertices: tuple[Vertex, ...] = tuple(verts)
        self.ids: tuple[str, ...] = tuple(declared.index)
        self.m = len(verts)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(declared.pairs))
        nbrs: list[list[int]] = [[] for _ in verts]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(n)) for n in nbrs)
        self.degrees: tuple[int, ...] = tuple(len(n) for n in nbrs)
        if not _is_connected(self.adjacency):
            raise ValidationError("graph is disconnected")
        self.factors = _factor_leading(verts, self.edges, self.adjacency, self.m)
        if not self.factors.negative_definite:
            # every leading block of a negative definite matrix is one: bisect
            failing = 1 + bisect_left(range(1, self.m), True, key=lambda k: not _factor_leading(
                verts, self.edges, self.adjacency, k).negative_definite)
            raise ValidationError("intersection matrix is not negative definite "
                                  f"(pivot at vertex {verts[failing - 1].id})")
        self.cycle_rank = len(self.edges) - self.m + 1
        self.h = 2 * sum(v.genus for v in verts) + self.cycle_rank
        self.chi_neighborhood = sum(2 - 2 * v.genus for v in verts) - len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PlumbingGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"PlumbingGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class _Declarations:
    """The structural rules, checked one declaration at a time for both
    the constructor and the parser: `name` the id's form and uniqueness,
    `vertex` int weights and g >= 0, `edge` the endpoints declared so far,
    no loop and no repeated edge."""

    def __init__(self) -> None:
        self.vertices: list[Vertex] = []
        self.index: dict[str, int] = {}
        self.pairs: set[tuple[int, int]] = set()

    def name(self, vid: str) -> None:
        if not isinstance(vid, str) or not _ID_RE.match(vid):
            raise ValidationError(f"invalid vertex id {vid!r}")
        if vid in self.index:
            raise ValidationError(f"duplicate vertex id {vid!r}")

    def vertex(self, v: Vertex) -> None:
        """Record a vertex whose id passed `name`."""
        if type(v.euler) is not int or type(v.genus) is not int:
            raise ValidationError(f"e and g must be integers, got e={v.euler!r} g={v.genus!r}")
        if v.genus < 0:
            raise ValidationError(f"genus must be nonnegative, got {v.genus}")
        self.index[v.id] = len(self.vertices)
        self.vertices.append(v)

    def edge(self, u: str, w: str) -> None:
        for endpoint in (u, w):
            if not isinstance(endpoint, str) or endpoint not in self.index:
                raise ValidationError(f"unknown edge endpoint {endpoint!r}")
        if u == w:
            raise ValidationError(f"loop edge at vertex {u!r} is not allowed")
        i, j = self.index[u], self.index[w]
        pair = (i, j) if i < j else (j, i)
        if pair in self.pairs:
            first, second = sorted((u, w))
            raise ValidationError(f"repeated edge between {first!r} and {second!r}")
        self.pairs.add(pair)


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format.

    Each line passes the constructor's rules as it is read; the first
    faulty line raises ParseError with its number.  The graph is then
    derived once.  A graph that parses but is disconnected or not
    negative definite raises the constructor's ValidationError.
    """
    declared = _Declarations()
    try:
        for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "vertex":
                if len(fields) != 4:
                    raise ValidationError("expected 'vertex <id> e=<int> g=<uint>'")
                declared.name(fields[1])
                declared.vertex(Vertex(fields[1], _keyed_int(fields[2], "e"),
                                       _keyed_int(fields[3], "g")))
            elif fields[0] == "edge":
                if len(fields) != 3:
                    raise ValidationError("expected 'edge <id> <id>'")
                declared.edge(fields[1], fields[2])
            else:
                raise ValidationError(f"unknown directive {fields[0]!r}")
    except ValidationError as exc:
        raise ParseError(str(exc), lineno) from None
    if not declared.vertices:
        raise ParseError("no vertices declared")
    graph = PlumbingGraph.__new__(PlumbingGraph)
    graph._derive(declared)
    return graph


def _keyed_int(field: str, key: str) -> int:
    prefix = key + "="
    shown = field if len(field) <= 20 else field[:20] + "..."
    if field.startswith(prefix):
        text = field[len(prefix):]
        try:
            return int(text)
        except ValueError:
            digits = text[1:] if text.startswith(("+", "-")) else text
            # Python caps the digits int() reads from 3.10.7 on; older versions have no cap
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if digits.isdecimal() and 0 < limit < len(digits):
                raise ValidationError(f"'{prefix}' has {len(digits)} digits, more than the "
                                      f"interpreter's limit of {limit}; got {shown!r}") from None
    raise ValidationError(f"expected '{prefix}<int>', got {shown!r}")


def serialize_graph(graph: PlumbingGraph) -> str:
    """Canonical text form: declaration-order vertices, sorted edges."""
    lines = [f"vertex {v.id} e={v.euler} g={v.genus}" for v in graph.vertices]
    names = graph.ids
    pairs = sorted(tuple(sorted((names[i], names[j]))) for i, j in graph.edges)
    lines.extend(f"edge {u} {w}" for u, w in pairs)
    return "\n".join(lines) + "\n"


def _minimum_degree_order(adjacency: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Vertices in minimum-degree elimination order, ties to the lowest index.

    Eliminating a vertex joins its remaining neighbors pairwise (the
    fill-in) and changes their degrees; a heap keeps one entry per change
    and skips the entries that are stale when they come up.  A tree is
    taken leaf by leaf, which fills nothing in.
    """
    nbrs: list = [set(n) for n in adjacency]
    heap = [(len(n), v) for v, n in enumerate(nbrs)]
    heapq.heapify(heap)
    order = []
    while heap:
        degree, v = heapq.heappop(heap)
        around = nbrs[v]
        if around is None or degree != len(around):
            continue
        nbrs[v] = None
        order.append(v)
        for u in around:
            joined = nbrs[u]
            joined |= around
            joined.discard(u)
            joined.discard(v)
            heapq.heappush(heap, (len(joined), u))
    return tuple(order)


def _factor_leading(verts: list[Vertex], edges: tuple[tuple[int, int], ...],
                    adjacency: tuple[tuple[int, ...], ...], k: int) -> Elimination:
    """Factors of the block of vertices 0..k-1, handed over as the upper
    rows of P^T I P, P the block's own minimum-degree order."""
    order = _minimum_degree_order(tuple(tuple(j for j in a if j < k) for a in adjacency[:k]))
    position = [0] * k
    for p, v in enumerate(order):
        position[v] = p
    upper = [{p: verts[v].euler} for p, v in enumerate(order)]
    for i, j in edges:
        if j < k:
            a, b = position[i], position[j]
            upper[min(a, b)][max(a, b)] = 1
    factors = eliminate_upper(upper)
    factors.order = order
    return factors


def _is_connected(adjacency: tuple[tuple[int, ...], ...]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(adjacency)
