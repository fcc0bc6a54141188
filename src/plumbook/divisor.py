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
(-I)^{-1}(-c) > 0, so ceil(x) >= 1 already.

The search starts higher, from the factors' rounded back substitution.
Let v be eliminated at step k, S the vertices eliminated up to and
including v, and L those eliminated after it.  The forward sweep leaves
row v as D_{k+1} x_v + sum(b_vi x_i over i in L) = c'_v, which is the v
entry of the block system I[S] z = c_S - I[S, L] w solved for z with the
values w on L moved to the right.  Its solution z(w) rises with w:
-I[S] is a principal block of a nonsingular M-matrix, so (-I[S])^{-1} >=
0, and I[S, L] >= 0.  For a feasible d' and any w <= d'_L, I[S] d'_S <=
c_S - I[S, L] d'_L <= c_S - I[S, L] w, so d'_S >= z(w).  Taking the
vertices last eliminated first, with w the integers already set on L,

    d0_v = ceil((c'_v - sum(b_vi d0_i)) / D_{k+1}) = ceil(z(w)_v),

so by induction d0 lies below every feasible d', and as w >= x_L and
z(x_L) = x_S, d0 >= ceil(x).  From d0 the search raises a violated row i
by the jump ceil(((I.d)_i - c_i) / |e_i|), Laufer's fundamental-cycle
iteration.  While d lies below every feasible d', raising the other
coordinates only adds to row i, so d'_i >= d_i + jump: no jump
overshoots, and the first feasible d reached is the pointwise minimum.
A jump updates row i and its neighbours' rows only, O(deg_i).  On the
chain (-2, ..., -2, -3), ceil(x) lies about m^2/8 unit raises below the
minimum, and d0 is the minimum at every m tried, up to 20,000.

The number of jumps is bounded too.  Let y = I^{-1}(c - deg), d_up =
ceil(y) and u = d_up - y in [0, 1)^m.  Then

    (I.d_up)_i = c_i - deg_i + e_i u_i + sum over j ~ i of u_j,

where e_i u_i <= 0 (e_i < 0 on a negative definite graph) and the sum is
below deg_i when deg_i >= 1 and is 0 otherwise.  So the integer
(I.d_up)_i is at most c_i: d_up is feasible, and the minimum d* <= d_up.
Each jump raises by at least 1, so jumps <= sum(d* - d0) <= sum(d_up -
ceil(x)), one more substitution to evaluate.
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

    Starts at the rounded back substitution of I d = c and raises
    violated rows, taken from a worklist, by exact jumps until none is
    left; see the module docstring for why this ends exactly at the
    minimum.
    """
    thresholds = [min(-(deg + 2 * v.genus), -1)
                  for v, deg in zip(graph.vertices, graph.degrees)]
    d = list(graph.factors.solve_rounded_up(thresholds))
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

