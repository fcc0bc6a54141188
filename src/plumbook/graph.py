"""Plumbing graphs: weighted-graph model, text format, derived data.

A plumbing graph is a finite connected graph whose vertex v carries an
Euler number e_v (self-intersection, an integer) and a genus g_v >= 0,
and whose intersection matrix is negative definite.  Loops and
multi-edges are forbidden: two curves meet in at most one point and a
curve does not meet itself in this configuration model.  A
`PlumbingGraph` that exists is valid: its constructor checks all of
this and keeps the factorization it checked definiteness with.  The
parser checks a file by the constructor's own rules and messages: a plain
file (below) all at once, any other line by line (see `parse_graph`).

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
declaration order followed by edges sorted lexicographically.  Its files
are plain: once a final LF is added if missing, a plain file is one match
of `(vertex <id> e=-?[0-9]+ g=[0-9]+\n)+(edge <id> <id>\n)*`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, NamedTuple

from .errors import ParseError, ValidationError, _iterable, _read_int, _shown
from .rational import Elimination, eliminate_by_degree

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_VERTEX_LINE_RE = re.compile(r"vertex ([A-Za-z0-9_]+) e=(-?[0-9]+) g=([0-9]+)\n")
_EDGE_LINE_RE = re.compile(r"edge ([A-Za-z0-9_]+) ([A-Za-z0-9_]+)\n")
# a plain file: vertex lines, then edge lines; a match that captures nothing is faster
_PLAIN_RE = re.compile("(?:{})+(?:{})*".format(
    *(line.pattern.replace("(", "(?:") for line in (_VERTEX_LINE_RE, _EDGE_LINE_RE))))
_EDGE = (1, 0)   # the cell (entry, step written) of an edge, shared by every row


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
        for v in _iterable(vertices, "vertices"):
            try:
                v = v if isinstance(v, Vertex) else Vertex(*v)
            except TypeError:
                raise ValidationError(
                    f"expected a vertex (<id>, <e>, <g>), got {_shown(v)}") from None
            declared.name(v.id)
            declared.vertex(v)
        if not declared.vertices:
            raise ValidationError("a plumbing graph needs at least one vertex")
        for edge in _iterable(edges, "edges"):
            try:
                u, w = () if isinstance(edge, str) else edge   # 'ab' would unpack
            except (TypeError, ValueError):
                raise ValidationError(
                    f"expected an edge (<id>, <id>), got {_shown(edge)}") from None
            declared.edge(u, w)
        self._derive(declared)

    def _derive(self, declared: _Declarations) -> None:
        """Everything derived from declarations that passed the rules."""
        verts = declared.vertices
        self.vertices: tuple[Vertex, ...] = tuple(verts)
        self.ids: tuple[str, ...] = tuple(declared.index)
        self.m = len(verts)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(declared.pairs))
        rows: list[dict[int, tuple[int, int]]] = [{} for _ in verts]   # I's cells
        for i, j in self.edges:    # sorted, so each row's neighbours come out ascending
            rows[i][j] = rows[j][i] = _EDGE
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, rows))
        self.degrees: tuple[int, ...] = tuple(map(len, rows))
        if not _is_connected(self.adjacency):
            raise ValidationError("graph is disconnected")
        for v, (_, euler, _) in enumerate(verts):
            rows[v][v] = (euler, 0)
        factors = eliminate_by_degree(rows)
        if factors is None:
            # every leading block of a negative definite matrix is one: bisect
            failing = 1 + bisect_left(range(1, self.m), True, key=lambda k: _factor_leading(
                verts, self.adjacency, k) is None)
            pivot = _shown(verts[failing - 1].id, quoted=False)
            raise ValidationError("intersection matrix is not negative definite "
                                  f"(pivot at vertex {pivot})")
        self.factors: Elimination = factors
        self.cycle_rank = len(self.edges) - self.m + 1
        genera = sum([genus for _, _, genus in verts])
        self.h = 2 * genera + self.cycle_rank
        self.chi_neighborhood = 2 * (self.m - genera) - len(self.edges)

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
            raise ValidationError(f"invalid vertex id {_shown(vid)}")
        if vid in self.index:
            raise ValidationError(f"duplicate vertex id {_shown(vid)}")

    def vertex(self, v: Vertex) -> None:
        """Record a vertex whose id passed `name`."""
        if type(v.euler) is not int or type(v.genus) is not int:
            raise ValidationError(f"e and g must be integers, got e={_shown(v.euler)} "
                                  f"g={_shown(v.genus)}")
        if v.genus < 0:
            raise ValidationError(f"genus must be nonnegative, got {_shown(v.genus)}")
        self.index[v.id] = len(self.vertices)
        self.vertices.append(v)

    def edge(self, u: str, w: str) -> None:
        for endpoint in (u, w):
            if not isinstance(endpoint, str) or endpoint not in self.index:
                raise ValidationError(f"unknown edge endpoint {_shown(endpoint)}")
        if u == w:
            raise ValidationError(f"loop edge at vertex {_shown(u)} is not allowed")
        i, j = self.index[u], self.index[w]
        pair = (i, j) if i < j else (j, i)
        if pair in self.pairs:
            first, second = sorted((u, w))
            raise ValidationError(f"repeated edge between {_shown(first)} and {_shown(second)}")
        self.pairs.add(pair)


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format.

    A plain file, one match of `(vertex <id> e=-?[0-9]+ g=[0-9]+\n)+(edge
    <id> <id>\n)*` once a missing final LF is added, is read in bulk; any
    other file, and any plain file that breaks a rule, is read line by line,
    where each line passes the constructor's rules as it is read and the
    first faulty line raises ParseError with its number.  The graph is
    then derived once.  A graph that parses but is disconnected or not
    negative definite raises the constructor's ValidationError.
    """
    graph = PlumbingGraph.__new__(PlumbingGraph)
    graph._derive(_read_plain(text) or _read_lines(text))
    return graph


def _read_plain(text: str) -> _Declarations | None:
    """The declarations of a plain file that keeps every rule, read from one
    `_PLAIN_RE` match and a `findall` per line pattern, or None: the line
    loop then reads the file."""
    text = text if text.endswith("\n") else text + "\n"
    if not _PLAIN_RE.fullmatch(text):
        return None
    vertices, edges = _VERTEX_LINE_RE.findall(text), _EDGE_LINE_RE.findall(text)
    declared = _Declarations()
    index = declared.index = {vid: i for i, (vid, _, _) in enumerate(vertices)}
    try:
        declared.vertices = [tuple.__new__(Vertex, (vid, int(e), int(g)))
                             for vid, e, g in vertices]
        # a loop drops out of the pair set and a repeated edge merges in it
        declared.pairs = {(i, j) if i < j else (j, i)
                          for u, w in edges for i, j in [(index[u], index[w])] if i != j}
    except (KeyError, ValueError):   # an unknown endpoint, an int past the digit cap
        return None
    if len(index) < len(vertices) or len(declared.pairs) < len(edges):
        return None
    return declared


def _read_lines(text: str) -> _Declarations:
    """The declarations of any file, one line at a time."""
    declared = _Declarations()
    name, vertex, edge = declared.name, declared.vertex, declared.edge
    try:
        for lineno, raw in enumerate(_lines(text), start=1):
            fields = raw.partition("#")[0].split()
            if not fields:
                continue
            directive = fields[0]
            if directive == "vertex":
                if len(fields) != 4:
                    raise ValidationError("expected 'vertex <id> e=<int> g=<uint>'")
                vid, e, g = fields[1:]
                name(vid)
                vertex(Vertex(vid, _keyed_int(e, "e="), _keyed_int(g, "g=")))
            elif directive == "edge":
                if len(fields) != 3:
                    raise ValidationError("expected 'edge <id> <id>'")
                edge(fields[1], fields[2])
            else:
                raise ValidationError(f"unknown directive {_shown(directive)}")
    except ValidationError as exc:
        raise ParseError(str(exc), lineno) from None
    if not declared.vertices:
        raise ParseError("no vertices declared")
    return declared


def _lines(text: str) -> list[str]:
    """The lines of a text, which end at LF, CR LF or CR only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _keyed_int(field: str, prefix: str) -> int:
    keyed = field.startswith(prefix)
    value = _read_int(field[len(prefix):], f"'{prefix}'", field) if keyed else None
    if value is None:
        raise ValidationError(f"expected '{prefix}<int>', got {_shown(field)}")
    return value


def serialize_graph(graph: PlumbingGraph) -> str:
    """Canonical text form: declaration-order vertices, sorted edges."""
    lines = [f"vertex {vid} e={euler} g={genus}" for vid, euler, genus in graph.vertices]
    names = graph.ids
    # no id holds a space or anything below it, so the lines sort as their id pairs
    lines += sorted([f"edge {u} {w}" if u < w else f"edge {w} {u}"
                     for u, w in [(names[i], names[j]) for i, j in graph.edges]])
    return "\n".join(lines) + "\n"


def _factor_leading(verts: list[Vertex], adjacency: tuple[tuple[int, ...], ...],
                    k: int) -> Elimination | None:
    """Factors of the block of vertices 0..k-1 in minimum-degree order, or
    None: a row holds the vertex's Euler number and a 1 per edge in the block.
    Only the bisection that names a failing vertex factors a leading block;
    `_derive` builds the whole matrix's rows as it reads the edges."""
    rows = []
    for v, around in enumerate(adjacency[:k]):
        row = dict.fromkeys(around[:bisect_left(around, k)], _EDGE)
        row[v] = (verts[v].euler, 0)
        rows.append(row)
    return eliminate_by_degree(rows)


def _is_connected(adjacency: tuple[tuple[int, ...], ...]) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for j in adjacency[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(adjacency)
