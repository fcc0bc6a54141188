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
Stieltjes matrix, so (-I)^{-1} >= 0 and -I.d >= -c gives d >= I^{-1}c:
every feasible d lies above d0 = max(1, ceil(I^{-1}c)), one substitution
with the kept factors.  From d0 the search raises a violated row i by the
jump ceil(((I.d)_i - c_i) / |e_i|), Laufer's fundamental-cycle iteration.
While d lies below every feasible d', raising the other coordinates only
adds to row i, so d'_i >= d_i + jump: no jump overshoots, and the first
feasible d reached is the pointwise minimum.  A jump updates row i and
its neighbours' rows only, O(deg_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError
from .graph import PlumbingGraph


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of condition (a) with the per-vertex left-hand sides.

    slacks[i] is the value of (D + E + K).E_i + 2; the condition holds
    when every slack is <= 0.
    """
    holds: bool
    slacks: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.holds


class MinimalDivisor(NamedTuple):
    divisor: tuple[int, ...]
    binding: tuple[int, ...]


def _intersection_with(graph: PlumbingGraph, vec: Sequence[int]) -> list[int]:
    """I.vec in plain integer arithmetic."""
    adjacency = graph.adjacency
    return [graph.vertices[i].euler * vec[i] + sum(vec[j] for j in adjacency[i])
            for i in range(graph.m)]


def binding_vector(graph: PlumbingGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """n = -I.d for an integral divisor d."""
    _check_divisor(graph, divisor)
    return tuple(-x for x in _intersection_with(graph, list(divisor)))


def _check_divisor(graph: PlumbingGraph, divisor: Sequence[int]) -> None:
    if len(divisor) != graph.m:
        raise ValidationError(
            f"divisor has {len(divisor)} entries for a graph with {graph.m} vertices")
    if any(int(d) != d for d in divisor):
        raise ValidationError("divisor entries must be integers")


def openbook_condition(graph: PlumbingGraph, divisor: Sequence[int]) -> ConditionReport:
    """Evaluate condition (a) for an effective nonzero divisor."""
    _check_divisor(graph, divisor)
    if any(d < 0 for d in divisor):
        raise ValidationError("divisor must be effective (no negative entries)")
    if all(d == 0 for d in divisor):
        raise ValidationError("divisor must be nonzero")
    d_row = _intersection_with(graph, list(divisor))
    slacks = tuple(dr + deg + 2 * v.genus
                   for dr, deg, v in zip(d_row, graph.degrees, graph.vertices))
    return ConditionReport(holds=all(s <= 0 for s in slacks), slacks=slacks)


def minimal_openbook_divisor(graph: PlumbingGraph) -> MinimalDivisor:
    """Pointwise-minimal d >= 1 satisfying conditions (a) and (b).

    Starts at max(1, ceil(I^{-1}c)) and raises violated rows, taken from a
    worklist, by exact jumps until none is left; see the module docstring
    for why this ends exactly at the minimum.
    """
    thresholds = [min(-(deg + 2 * v.genus), -1)
                  for v, deg in zip(graph.vertices, graph.degrees)]
    lower = graph.factors.solve(thresholds)
    d = [max(1, -(-x.numerator // x.denominator)) for x in lower]
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


def scale_divisor(graph: PlumbingGraph, divisor: Sequence[int], k: int) -> tuple[int, ...]:
    """k-fold multiple of a divisor already satisfying condition (a).

    The multiple satisfies the condition again for every positive k; the
    re-check here can only fail on an implementation bug, hence the
    ConsistencyError.
    """
    if k < 1 or int(k) != k:
        raise ValidationError(f"scale factor must be a positive integer, got {k!r}")
    if not openbook_condition(graph, divisor).holds:
        raise ValidationError("divisor does not satisfy the open-book condition")
    scaled = tuple(k * d for d in divisor)
    after = openbook_condition(graph, scaled)
    if not after.holds:
        raise ConsistencyError(
            f"scaling by {k} broke the open-book condition (slacks {after.slacks})")
    return scaled
