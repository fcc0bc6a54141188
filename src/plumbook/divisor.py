"""Effective divisors whose associated open book has positive binding.

An effective divisor D = sum(d_i E_i), d_i >= 1, supports a horizontal
open book on the boundary of the plumbing when

    (D + E + K) . E_i + 2 <= 0            for every vertex i,      (a)

where E = sum(E_i) and K is the canonical cycle.  As E.E_i = e_i + deg_i
and K.E_i = 2g_i - 2 - e_i, the left side is the slack (I.d)_i + deg_i +
2g_i, so K itself is not needed.  The binding vector n = -I.d must also
be positive, the extra row condition

    (I.d)_i <= -1                         for every vertex i.      (b)

So d is feasible iff I.d <= c, c_i = min(-(deg_i + 2g_i), -1).  -I is a
Stieltjes matrix, irreducible as the graph is connected, so (-I)^{-1} > 0
entrywise and -I.d >= -c gives d >= x = I^{-1}c.  As -c >= 1, x =
(-I)^{-1}(-c) > 0, so d0 = ceil(x) >= 1 already: every feasible d lies
above d0, one substitution with the kept factors.  From d0 the search
raises a violated row i by the jump ceil(((I.d)_i - c_i) / |e_i|),
Laufer's fundamental-cycle iteration.  While d lies below every feasible
d', raising the other coordinates only adds to row i, so d'_i >= d_i +
jump: no jump overshoots, and the first feasible d reached is the
pointwise minimum.  A jump updates row i and its neighbours' rows only,
O(deg_i).

The number of jumps is bounded too.  Let y = I^{-1}(c - deg), d_up =
ceil(y) and u = d_up - y in [0, 1)^m.  Then

    (I.d_up)_i = c_i - deg_i + e_i u_i + sum over j ~ i of u_j,

where e_i u_i <= 0 (e_i < 0 on a negative definite graph) and the sum is
below deg_i when deg_i >= 1 and is 0 otherwise.  So the integer
(I.d_up)_i is at most c_i: d_up is feasible, and the minimum d* <= d_up.
Each jump raises by at least 1, so jumps <= sum(d* - d0) <= sum(d_up - d0),
one more substitution to evaluate.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError, _int_vector
from .graph import PlumbingGraph


class ConditionReport(NamedTuple):
    """Outcome of condition (a) with the per-vertex left-hand sides.

    slacks[i] is the value of (D + E + K).E_i + 2; the condition holds
    when every slack is <= 0.
    """
    holds: bool
    slacks: tuple[int, ...]


class MinimalDivisor(NamedTuple):
    divisor: tuple[int, ...]
    binding: tuple[int, ...]


def _intersection_with(graph: PlumbingGraph, vec: Sequence[int]) -> list[int]:
    """I.vec in plain integer arithmetic."""
    at = vec.__getitem__
    return [euler * x + sum(map(at, around))
            for (_, euler, _), x, around in zip(graph.vertices, vec, graph.adjacency)]


def openbook_condition(graph: PlumbingGraph, divisor: Iterable[int]) -> ConditionReport:
    """Evaluate condition (a) for an effective nonzero divisor."""
    divisor = _int_vector(divisor, graph.m, "divisor")
    if min(divisor) < 0:
        raise ValidationError("divisor must be effective (no negative entries)")
    if not any(divisor):
        raise ValidationError("divisor must be nonzero")
    d_row = _intersection_with(graph, divisor)
    slacks = tuple(dr + deg + 2 * v.genus
                   for dr, deg, v in zip(d_row, graph.degrees, graph.vertices))
    return ConditionReport(holds=all(s <= 0 for s in slacks), slacks=slacks)


def minimal_openbook_divisor(graph: PlumbingGraph) -> MinimalDivisor:
    """Pointwise-minimal d >= 1 satisfying conditions (a) and (b).

    Starts at ceil(I^{-1}c) and raises violated rows, taken from a
    worklist, by exact jumps until none is left; see the module docstring
    for why this ends exactly at the minimum.
    """
    thresholds = [min(-(deg + 2 * v.genus), -1)
                  for v, deg in zip(graph.vertices, graph.degrees)]
    det = graph.factors.det
    d = [-(-y // det) for y in graph.factors.solve_times_det(thresholds)]
    row = _intersection_with(graph, d)
    abs_e = [-v.euler for v in graph.vertices]
    queued = [r > c for r, c in zip(row, thresholds)]
    pending = [i for i, q in enumerate(queued) if q]
    while pending:
        i = pending.pop()
        queued[i] = False
        jump = -((thresholds[i] - row[i]) // abs_e[i])
        d[i] += jump
        row[i] -= abs_e[i] * jump
        for j in graph.adjacency[i]:
            row[j] += jump
            if not queued[j] and row[j] > thresholds[j]:
                queued[j] = True
                pending.append(j)
    return MinimalDivisor(divisor=tuple(d), binding=tuple(-x for x in row))

