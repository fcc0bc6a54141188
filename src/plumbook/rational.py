"""Exact rational linear algebra on arbitrary-precision integers.

Rationals are `fractions.Fraction`, which keeps every value in canonical
form (reduced, denominator > 0) over Python's unbounded ints, so overflow
cannot occur and no rounding ever happens.

Everything the package asks of an intersection matrix comes from one
symmetric elimination, `eliminate_upper`, which reads the nonzero entries
on and above the diagonal of a symmetric m, row by row, and writes m as
L D L^T, L unit lower triangular, D diagonal.  Pivots are taken in row
order with no pivoting: the k-th pivot is the quotient of the k-th
and (k-1)-th leading minors, so

    m is negative definite  <=>  every pivot is < 0,
    det m                   =    the product of the pivots,

and the first pivot >= 0 is where a matrix stops being negative definite;
the elimination stops there.  A negative definite matrix has no zero
leading minor, so it never needs a row exchange.  The same factors then
solve m x = b by one forward and one back substitution, for as many
right-hand sides as asked.  Only nonzero entries take part, so the
arithmetic is set by the fill-in, and the fill-in by the row order:
O(m^3) Fraction operations in the worst case, O(m) on a tree whose rows
come leaf first.  The elimination takes the rows in the order it is
given them.  A caller that chooses the order hands over P^T m P, which
has the same determinant and is negative definite exactly when m is,
and sets `Elimination.order`; `solve` then takes and returns vectors
indexed by the rows of m.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import DimensionError, ValidationError


class Elimination:
    """L D L^T factors of a symmetric matrix, pivots in row order.

    `pivots` holds the diagonal of D as far as the elimination got; when
    it stopped early, `stopped_at` is the row of the first pivot >= 0,
    which is then the last entry of `pivots`.  `determinant` and `solve`
    need the complete, negative definite factorization.  `order[k]` is
    the row of the caller's matrix that was eliminated k-th: the identity
    unless the caller handed its rows over permuted and says so here.
    """

    __slots__ = ("size", "pivots", "stopped_at", "order", "_columns")

    def __init__(self, size: int, pivots: list[Fraction],
                 columns: list[tuple[tuple[int, Fraction], ...]]):
        self.size = size
        self.pivots = tuple(pivots)
        self.stopped_at = len(columns) if len(columns) < size else None
        self.order = tuple(range(size))
        self._columns = tuple(columns)   # column k of L below the diagonal

    @property
    def negative_definite(self) -> bool:
        return self.stopped_at is None

    @property
    def l_nonzeros(self) -> int:
        """Entries of L kept below the diagonal: the matrix's own
        off-diagonal entries below it plus the fill-in."""
        return sum(len(column) for column in self._columns)

    def _require_complete(self) -> None:
        if self.stopped_at is not None:
            raise ValidationError(
                f"matrix is not negative definite: pivot {self.stopped_at} "
                f"is {self.pivots[-1]}")

    def determinant(self) -> Fraction:
        """Product of the pivots."""
        self._require_complete()
        return prod(self.pivots, start=Fraction(1))

    def solve(self, b: Sequence) -> tuple[Fraction, ...]:
        """Exact x with m x = b: L y = P^T b, then D L^T P^T x = y."""
        self._require_complete()
        if len(b) != self.size:
            raise DimensionError(
                f"right-hand side of length {len(b)} against {self.size} rows")
        x = [Fraction(b[v]) for v in self.order]
        for k, column in enumerate(self._columns):
            if x[k]:
                for i, factor in column:
                    x[i] -= factor * x[k]
        for k, pivot in enumerate(self.pivots):
            x[k] /= pivot
        for k in reversed(range(self.size)):
            for i, factor in self._columns[k]:
                x[k] -= factor * x[i]
        solution: list = [None] * self.size
        for v, value in zip(self.order, x):
            solution[v] = value
        return tuple(solution)


def eliminate_upper(upper: list[dict[int, Fraction | int]]) -> Elimination:
    """Symmetric elimination from the nonzero a_ij, j >= i, as upper[i][j].

    The dicts are consumed: upper[i] ends as what was left of row i.
    """
    n = len(upper)
    pivots: list[Fraction] = []
    columns: list[tuple[tuple[int, Fraction], ...]] = []
    for k in range(n):
        row = upper[k]
        pivot = Fraction(row.pop(k, 0))
        pivots.append(pivot)
        if pivot >= 0:
            break
        column = tuple((i, a / pivot) for i, a in row.items())
        for i, factor in column:
            target = upper[i]
            for j, a in row.items():
                if j >= i:
                    target[j] = target.get(j, 0) - factor * a
        columns.append(column)
    return Elimination(n, pivots, columns)


def lcm_of_denominators(v: Iterable) -> int:
    """Least positive k such that k*v is integral (1 for the empty vector)."""
    return lcm(*(Fraction(x).denominator for x in v), 1)
