"""Horizontal open books on the boundary of a plumbing, combinatorially.

Given a positive integral binding vector n, the vertex multiplicities N
solve N.I = -n; they are positive rationals on a negative-definite graph
(-n.I^{-1} has positive entries) with denominators dividing det I.  The
least k making M = k.N integral gives the open book at vertex v with

    b_v = k n_v   binding circles,
    M_v           as the degree of the page over the vertex piece,

with the page meeting each boundary torus in explicitly known curves.
Coordinates on the boundary tori: at the outer torus of a vertex piece
(alpha, beta) with alpha the base-circle direction and beta the fiber;
at the small torus of an edge (gamma, beta) with gamma the boundary of
the removed disk.  The outer page slope is (-e_v M_v, M_v) in (alpha,
beta); on the edge torus toward vertex u the page boundary is the class
(M_u, -M_v) at v's side, a curve with gcd(M_u, M_v) components.
Plumbing an edge identifies gamma with beta on the two sides, which has
to carry the page class at one end to minus the page class at the other;
`verify_gluing` rechecks exactly that, plus the vertex relation

    M_v e_v + sum(M_u over neighbors u) = -b_v

at every vertex.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Sequence

from .divisor import binding_vector, minimal_openbook_divisor
from .errors import ConsistencyError, ValidationError
from .graph import PlumbingGraph, serialize_graph


@dataclass(frozen=True)
class EdgeCurve:
    """Page boundary classes on the two tori of one plumbed edge."""
    u: str
    v: str
    class_at_u: tuple[int, int]  # (gamma, beta) coordinates at u's torus
    class_at_v: tuple[int, int]
    components: int


@dataclass(frozen=True)
class GluingCheck:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class OpenBookDescription:
    graph: PlumbingGraph
    scale: int
    binding: tuple[int, ...]          # requested n
    multiplicities: tuple[int, ...]   # M = scale * N
    binding_counts: tuple[int, ...]   # b = scale * n
    outer_slopes: tuple[tuple[int, int], ...]
    edge_curves: tuple[EdgeCurve, ...]
    page_euler: int
    boundary_components: int
    gluing: GluingCheck | None = field(default=None, compare=False)  # made at assembly


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Round-trip consistency record for the open book of the minimal divisor.

    The open book is assembled once, from the multiplicities N that solve
    I.N = -n for the binding n = -I.d of the minimal divisor d.  As I is
    invertible the solve must give back N = d, so k = 1, and the verdict
    records that multiplicities == k.d.  This is not an independent proof
    that two open books are equivalent: the smoothing side is the same
    book.  A failed round trip raises ConsistencyError, in the binding
    check or the gluing check at assembly, before any certificate exists.
    """
    graph_hash: str
    divisor: tuple[int, ...]
    binding: tuple[int, ...]
    scale: int
    configuration_side: OpenBookDescription
    verdict: bool


def _check_binding(graph: PlumbingGraph, binding: Sequence[int]) -> tuple[int, ...]:
    if len(binding) != graph.m:
        raise ValidationError(
            f"binding vector has {len(binding)} entries for {graph.m} vertices")
    entries = tuple(int(n) for n in binding)
    if any(int(n) != n for n in binding) or any(n < 1 for n in entries):
        raise ValidationError("binding entries must be integers >= 1")
    return entries


def solve_multiplicities(graph: PlumbingGraph,
                         binding: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The positive rational N with I.N = -n as (k, M = k.N), k the least
    making M integral: y = det(I) N is, so k = |det| / gcd(det, y)."""
    entries = _check_binding(graph, binding)
    det = graph.factors.determinant()
    scaled = graph.factors.solve_times_det([-n for n in entries])
    k = abs(det) // gcd(det, *scaled)
    multiplicities = tuple(k * y // det for y in scaled)
    if any(x <= 0 for x in multiplicities):
        raise ConsistencyError(
            "multiplicity solution has a nonpositive entry; "
            "the graph cannot have been negative definite")
    return k, multiplicities


def build_open_book(graph: PlumbingGraph,
                    binding: Sequence[int],
                    scale: int | None = None) -> OpenBookDescription:
    """Assemble the open-book description for a positive binding vector.

    `scale` defaults to the least k making k.N integral; an explicit
    scale must be a positive multiple of that minimum.
    """
    minimal_scale, multiplicities = solve_multiplicities(graph, binding)   # checks the binding
    entries = tuple(int(n) for n in binding)
    if scale is None:
        scale = minimal_scale
    else:
        if scale < 1 or int(scale) != scale:
            raise ValidationError(f"scale must be a positive integer, got {scale!r}")
        if scale % minimal_scale != 0:
            raise ValidationError(
                f"scale {scale} is not a multiple of the minimal scale {minimal_scale}")
        multiplicities = tuple(scale // minimal_scale * x for x in multiplicities)
    binding_counts = tuple(scale * n for n in entries)
    names = graph.ids
    degrees = graph.degrees
    outer_slopes = tuple((-v.euler * m, m)
                         for v, m in zip(graph.vertices, multiplicities))
    edge_curves = tuple(
        EdgeCurve(u=names[i], v=names[j],
                  class_at_u=(multiplicities[j], -multiplicities[i]),
                  class_at_v=(multiplicities[i], -multiplicities[j]),
                  components=gcd(multiplicities[i], multiplicities[j]))
        for i, j in graph.edges)
    # chi of the page by counting it as an M_v-sheeted cover of each vertex
    # surface punctured at edges and bindings; annular edge/binding pieces
    # contribute nothing.  Derived here, not a quoted formula.
    page_euler = sum(m * (2 - 2 * v.genus - deg - b)
                     for v, m, deg, b in zip(graph.vertices, multiplicities,
                                             degrees, binding_counts))
    description = OpenBookDescription(
        graph=graph,
        scale=scale,
        binding=entries,
        multiplicities=multiplicities,
        binding_counts=binding_counts,
        outer_slopes=outer_slopes,
        edge_curves=edge_curves,
        page_euler=page_euler,
        boundary_components=sum(binding_counts),
    )
    check = verify_gluing(description)
    if not check.ok:
        raise ConsistencyError("constructed description failed its own gluing check: "
                               + "; ".join(check.failures))
    return replace(description, gluing=check)


def verify_gluing(description: OpenBookDescription) -> GluingCheck:
    """Recheck the vertex relation and edge-torus matching from scratch."""
    graph = description.graph
    mult = description.multiplicities
    failures: list[str] = []
    adjacency = graph.adjacency
    for i, vertex in enumerate(graph.vertices):
        total = mult[i] * vertex.euler + sum(mult[j] for j in adjacency[i])
        if total != -description.binding_counts[i]:
            failures.append(
                f"vertex {vertex.id}: multiplicity relation gives {total}, "
                f"expected {-description.binding_counts[i]}")
    by_pair = {(curve.u, curve.v): curve for curve in description.edge_curves}
    names = graph.ids
    for i, j in graph.edges:
        curve = by_pair.get((names[i], names[j]))
        if curve is None:
            failures.append(f"edge {names[i]}-{names[j]}: missing curve data")
            continue
        # plumbing swaps gamma and beta, so the image of the class at u is
        # read by exchanging the two coordinates
        swapped = (curve.class_at_u[1], curve.class_at_u[0])
        negated = (-curve.class_at_v[0], -curve.class_at_v[1])
        if swapped != negated:
            failures.append(
                f"edge {curve.u}-{curve.v}: {curve.class_at_u} maps to {swapped}, "
                f"expected {negated}")
        if curve.components != gcd(mult[i], mult[j]):
            failures.append(f"edge {curve.u}-{curve.v}: wrong component count")
    return GluingCheck(ok=not failures, failures=tuple(failures))


def equivalence_certificate(graph: PlumbingGraph) -> EquivalenceCertificate:
    """Assemble the open book of the minimal divisor and record the round trip."""
    found = minimal_openbook_divisor(graph)
    # sanity: n really is -I.d for the reported divisor
    if binding_vector(graph, found.divisor) != found.binding:
        raise ConsistencyError("minimal divisor and binding vector disagree")
    configuration = build_open_book(graph, found.binding)
    k = configuration.scale
    digest = hashlib.sha256(serialize_graph(graph).encode("utf-8")).hexdigest()
    return EquivalenceCertificate(
        graph_hash=digest,
        divisor=found.divisor,
        binding=found.binding,
        scale=k,
        configuration_side=configuration,
        verdict=configuration.multiplicities == tuple(k * d for d in found.divisor),
    )
