"""Plumbing graphs: weighted-graph model, text format, derived data.

A plumbing graph is a finite connected graph whose vertex v carries an
Euler number e_v (self-intersection, an integer) and a genus g_v >= 0.
Loops and multi-edges are forbidden: two curves meet in at most one
point and a curve does not meet itself in this configuration model.

Text format (UTF-8, line oriented)::

    vertex <id> e=<int> g=<uint>
    edge <id> <id>

'#' starts a comment, blank lines are ignored, ids match [A-Za-z0-9_]+,
and a vertex must be declared before any edge mentions it.  Vertex
declaration order is significant: it fixes the row/column order of the
intersection matrix and of every vector indexed by vertices.  The
canonical serializer emits vertices in declaration order followed by
edges sorted lexicographically.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ParseError, ValidationError
from .rational import Elimination, eliminate_upper

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Vertex:
    id: str
    euler: int
    genus: int


class PlumbingGraph:
    """Immutable vertex-weighted graph with an unordered simple edge set.

    `adjacency` (neighbor indices per vertex, ascending) and `degrees` are
    fixed at construction.  `validate` keeps its result, factorization
    included, on the instance, so a graph is factored at most once.
    """

    def __init__(self, vertices: Iterable, edges: Iterable[tuple[str, str]] = ()):
        verts = []
        for v in vertices:
            if not isinstance(v, Vertex):
                v = Vertex(*v)
            verts.append(v)
        if not verts:
            raise ValidationError("a plumbing graph needs at least one vertex")
        index: dict[str, int] = {}
        for pos, v in enumerate(verts):
            if not _ID_RE.match(v.id):
                raise ValidationError(f"invalid vertex id {v.id!r}")
            if v.id in index:
                raise ValidationError(f"duplicate vertex id {v.id!r}")
            if v.genus < 0:
                raise ValidationError(f"vertex {v.id!r} has negative genus")
            index[v.id] = pos
        pairs: set[tuple[int, int]] = set()
        for u, w in edges:
            if u not in index:
                raise ValidationError(f"unknown edge endpoint {u!r}")
            if w not in index:
                raise ValidationError(f"unknown edge endpoint {w!r}")
            i, j = sorted((index[u], index[w]))
            if i == j:
                raise ValidationError(f"loop edge at vertex {u!r} is not allowed")
            if (i, j) in pairs:
                raise ValidationError(f"repeated edge between {u!r} and {w!r}")
            pairs.add((i, j))
        self.vertices: tuple[Vertex, ...] = tuple(verts)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(pairs))
        nbrs: list[list[int]] = [[] for _ in verts]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(n)) for n in nbrs)
        self.degrees: tuple[int, ...] = tuple(len(n) for n in nbrs)
        self._summary: GraphSummary | None = None

    @property
    def m(self) -> int:
        return len(self.vertices)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PlumbingGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"PlumbingGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class GraphSummary:
    """Derived combinatorial data of a validated graph.

    h is the first-Betti rank of the glued-up curve configuration:
    2*sum(genus) plus one per independent cycle of the graph.
    chi_neighborhood is the Euler characteristic of a regular
    neighborhood of the configuration: sum(2 - 2*g_v) minus one per
    intersection point.  factors is the elimination of the intersection
    matrix, from which the determinant and every exact solve are read.
    """
    m: int
    edge_count: int
    h: int
    chi_neighborhood: int
    degrees: tuple[int, ...]
    cycle_rank: int
    factors: Elimination = field(compare=False, repr=False)


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format.

    Structural errors (syntax, duplicate ids, unknown endpoints, loops,
    repeated edges) raise ParseError with the line number.  Connectivity
    and definiteness are deliberately not checked here; see `validate`.
    """
    vertices: list[Vertex] = []
    seen: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    edge_set: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "vertex":
            if len(fields) != 4:
                raise ParseError("expected 'vertex <id> e=<int> g=<uint>'", lineno)
            vid = fields[1]
            if not _ID_RE.match(vid):
                raise ParseError(f"invalid vertex id {vid!r}", lineno)
            if vid in seen:
                raise ParseError(f"duplicate vertex id {vid!r}", lineno)
            euler = _keyed_int(fields[2], "e", lineno)
            genus = _keyed_int(fields[3], "g", lineno)
            if genus < 0:
                raise ParseError(f"genus must be nonnegative, got {genus}", lineno)
            seen[vid] = len(vertices)
            vertices.append(Vertex(vid, euler, genus))
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise ParseError("expected 'edge <id> <id>'", lineno)
            u, w = fields[1], fields[2]
            for endpoint in (u, w):
                if endpoint not in seen:
                    raise ParseError(f"unknown edge endpoint {endpoint!r}", lineno)
            if u == w:
                raise ParseError(f"loop edge at vertex {u!r} is not allowed", lineno)
            key = tuple(sorted((u, w)))
            if key in edge_set:
                raise ParseError(f"repeated edge between {key[0]!r} and {key[1]!r}", lineno)
            edge_set.add(key)
            edges.append((u, w))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if not vertices:
        raise ParseError("no vertices declared")
    return PlumbingGraph(vertices, edges)


def _keyed_int(field: str, key: str, lineno: int) -> int:
    prefix = key + "="
    shown = field if len(field) <= 20 else field[:20] + "..."
    if not field.startswith(prefix):
        raise ParseError(f"expected '{prefix}<int>', got {shown!r}", lineno)
    text = field[len(prefix):]
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text.startswith(("+", "-")) else text
        # Python caps the digits int() reads from 3.10.7 on; older versions have no cap
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise ParseError(f"'{prefix}' has {len(digits)} digits, more than the "
                             f"interpreter's limit of {limit}; got {shown!r}", lineno) from None
        raise ParseError(f"expected '{prefix}<int>', got {shown!r}", lineno) from None


def serialize_graph(graph: PlumbingGraph) -> str:
    """Canonical text form: declaration-order vertices, sorted edges."""
    lines = [f"vertex {v.id} e={v.euler} g={v.genus}" for v in graph.vertices]
    names = graph.ids
    pairs = sorted(tuple(sorted((names[i], names[j]))) for i, j in graph.edges)
    lines.extend(f"edge {u} {w}" for u, w in pairs)
    return "\n".join(lines) + "\n"


def validate(graph: PlumbingGraph) -> GraphSummary:
    """Check connectivity and negative definiteness; return derived data.

    The two failure modes are reported distinctly, a definiteness failure
    with the vertex whose pivot is the first >= 0.  Euler numbers are not
    sign-checked on their own: a nonnegative e_v always surfaces as a
    definiteness failure.  The summary is kept on the graph, so later
    calls return it without factoring again.
    """
    if graph._summary is not None:
        return graph._summary
    if not _is_connected(graph):
        raise ValidationError("graph is disconnected")
    upper = [{i: v.euler} for i, v in enumerate(graph.vertices)]
    for i, j in graph.edges:
        upper[i][j] = 1
    factors = eliminate_upper(upper)
    if not factors.negative_definite:
        raise ValidationError(
            "intersection matrix is not negative definite "
            f"(pivot at vertex {graph.vertices[factors.stopped_at].id})")
    m = graph.m
    edge_count = len(graph.edges)
    cycle_rank = edge_count - m + 1
    total_genus = sum(v.genus for v in graph.vertices)
    graph._summary = GraphSummary(
        m=m,
        edge_count=edge_count,
        h=2 * total_genus + cycle_rank,
        chi_neighborhood=sum(2 - 2 * v.genus for v in graph.vertices) - edge_count,
        degrees=graph.degrees,
        cycle_rank=cycle_rank,
        factors=factors,
    )
    return graph._summary


def _is_connected(graph: PlumbingGraph) -> bool:
    adjacency = graph.adjacency
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == graph.m
