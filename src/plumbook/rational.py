"""Exact linear algebra on integer symmetric matrices, in Python ints.

A matrix comes as sparse symmetric rows of cells, rows[v][u] = (a_vu, 0)
for u = v and each a_vu != 0, and is eliminated symmetrically and
fraction-free (Bareiss 1968): with D_0 = 1 and D_{k+1} the pivot of step
k, taking v at step k sets b_ij = (D_{k+1} b_ij - b_vi b_vj) // D_k for
i, j left in row v.  Each entry is then a minor (Sylvester's identity), so
every division is exact and no entry outgrows Hadamard's bound on det m.
An entry that step k does not touch would only be scaled by D_{k+1}/D_k,
so a cell (b, s) holds the entry as step s left it, one tuple written to
both mirrored rows, and is brought up to date when next read: b D_k //
D_s.  m is negative definite iff D_k D_{k+1} < 0 for every k; factors
exist only then, and det m = D_m.  The operations are set by the
fill-in, and the fill-in by the order: O(m^3) at worst, O(m) on a tree
taken leaf first, as the minimum degree takes it.  Columns are keyed by
rows of m, so vectors go in and come out in m's own order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable

from .errors import _int_vector


class Elimination:
    """Fraction-free factors of a negative definite integer symmetric matrix.

    `det` is det m, `order[k]` the row of m eliminated at step k, and the
    two solves take integral right-hand sides in m's own order.
    """

    __slots__ = ("det", "order", "_minors", "_columns")

    def __init__(self, minors: list[int], order: list[int], columns: list[tuple]):
        self.det = minors[-1]
        self.order = tuple(order)
        self._minors = tuple(minors)     # D_0 = 1, D_1, ..., D_m in that order
        self._columns = tuple(columns)   # (row, b) left in row order[k] at step k

    @property
    def l_nonzeros(self) -> int:
        """Entries kept below the diagonal: the matrix's own plus fill-in."""
        return sum(len(column) for column in self._columns)

    def solve_times_det(self, b: Iterable[int]) -> tuple[int, ...]:
        """y = det(m) m^{-1} b for integral b, in integers."""
        return self._solve(b, self.det)

    def solve_rounded_up(self, b: Iterable[int]) -> tuple[int, ...]:
        """For integral b and m with no negative entry off the diagonal, as
        on a plumbing graph: an integral d with ceil(m^{-1} b) <= d <= d'
        for every integral d' with m d' <= b (see `plumbook.openbook`)."""
        return self._solve(b, 1)

    def _solve(self, b: Iterable[int], scale: int) -> tuple[int, ...]:
        """b, as one more column, takes the matrix's steps, so c_v is its
        entry at the step that eliminates v.  Row v at step k reads
        D_{k+1} x_v + sum(b_vi x_i) = c_v, so the back pass sets
        y_v = ceil((scale c_v - sum(b_vi y_i)) / D_{k+1}), last row first.
        With scale = D_m each division is exact and y = D_m x.
        """
        n = len(self.order)
        c = list(_int_vector(b, n, "right-hand side"))
        minors, order, columns = self._minors, self.order, self._columns
        updated = [0] * n    # the step at which c_v was last updated
        for k, (v, column) in enumerate(zip(order, columns)):
            d_k = minors[k]
            c_v = c[v]
            if updated[v] != k:
                c[v] = c_v = c_v * d_k // minors[updated[v]]
            if c_v:
                d_next = minors[k + 1]
                for i, b_vi in column:
                    c_i = c[i]
                    if updated[i] != k:
                        c_i = c_i * d_k // minors[updated[i]]
                    c[i] = (d_next * c_i - b_vi * c_v) // d_k
                    updated[i] = k + 1
        for k in reversed(range(n)):    # c_i is y_i for every i eliminated after step k
            v = order[k]
            excess = -scale * c[v]
            for i, b_vi in columns[k]:
                excess += b_vi * c[i]
            c[v] = -(excess // minors[k + 1])
        return tuple(c)


def eliminate_by_degree(rows: list[dict[int, tuple[int, int]]]) -> Elimination | None:
    """Factors of the rows, each holding its diagonal entry, or None at the
    first pivot with D_k D_{k+1} >= 0.  Each entry is a cell (b, s): its
    value and the step that last wrote it, (a_vu, 0) as handed in.  The
    next pivot is a vertex of least degree (the length of its row), ties to
    the lowest index: a heap keeps one entry per change of degree and skips
    those that are stale when they come up.  The rows are consumed."""
    minors, order, columns = [1], [], []
    heap = [(len(row), v) for v, row in enumerate(rows)]
    heapify(heap)
    while heap:
        degree, v = heappop(heap)
        row = rows[v]
        if row is None or degree != len(row):
            continue
        rows[v] = None
        k = len(order)
        d_k, step = minors[k], k + 1
        pivot, s = row.pop(v)    # no step deletes a row's own diagonal
        if s != k:
            pivot = pivot * d_k // minors[s]
        if d_k * pivot >= 0:
            return None
        minors.append(pivot)
        order.append(v)
        if len(row) == 1:    # a leaf: its one neighbour's diagonal alone changes
            i, (b_vi, s) = row.popitem()
            if s != k:
                b_vi = b_vi * d_k // minors[s]
            columns.append([(i, b_vi)])
            target = rows[i]
            del target[v]
            b_ii, s = target[i]
            if s != k:
                b_ii = b_ii * d_k // minors[s]
            target[i] = ((pivot * b_ii - b_vi * b_vi) // d_k, step)
            heappush(heap, (len(target), i))
            continue
        column = [(j, b if t == k else b * d_k // minors[t]) for j, (b, t) in row.items()]
        columns.append(column)
        absent = (0, k)
        for i, b_vi in column:
            target = rows[i]
            del target[v]
            for j, b_vj in column:
                if j >= i:    # each pair once, one cell written to both its rows
                    b_ij, s = target.get(j, absent)
                    if s != k:
                        b_ij = b_ij * d_k // minors[s]
                    target[j] = rows[j][i] = ((pivot * b_ij - b_vi * b_vj) // d_k, step)
        for i in row:    # pushed once the fill is in, so no degree is stale
            heappush(heap, (len(rows[i]), i))
    return Elimination(minors, order, columns)
