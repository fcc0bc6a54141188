"""Exact rational linear algebra on arbitrary-precision integers.

Rationals are `fractions.Fraction`, which keeps every value in canonical
form (reduced, denominator > 0) over Python's unbounded ints, so overflow
cannot occur and no rounding ever happens.

Everything the package asks of an intersection matrix comes from one
symmetric elimination, `eliminate_upper` (fed a `QMatrix` by `eliminate`),
which writes a symmetric m as L D L^T, L unit lower triangular, D diagonal.  Pivots are taken in
row order with no pivoting: the k-th pivot is the quotient of the k-th
and (k-1)-th leading minors, so

    m is negative definite  <=>  every pivot is < 0,
    det m                   =    the product of the pivots,

and the first pivot >= 0 is where a matrix stops being negative definite;
the elimination stops there.  A negative definite matrix has no zero
leading minor, so it never needs a row exchange.  The same factors then
solve m x = b by one forward and one back substitution, for as many
right-hand sides as asked.  Only nonzero entries take part, so the
arithmetic is set by the fill-in: O(m^3) Fraction operations in the worst
case, and O(m) on a tree whose rows come leaf first, where no entry fills
in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import DimensionError, ValidationError

Rational = Fraction


def qvector(entries: Iterable) -> tuple[Fraction, ...]:
    """Coerce a sequence of numbers into a tuple of exact rationals."""
    return tuple(Fraction(x) for x in entries)


class QMatrix:
    """Immutable matrix of exact rationals, stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("all matrix rows must have equal length")
        self.rows = len(data)
        self.cols = width
        self._entries = data

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._entries[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._entries)
        return f"QMatrix[{body}]"

    def mul_vector(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise DimensionError(f"vector of length {len(v)} against {self.cols} columns")
        vec = qvector(v)
        return tuple(sum((row[j] * vec[j] for j in range(self.cols)), Fraction(0))
                     for row in self._entries)


class Elimination:
    """L D L^T factors of a symmetric matrix, pivots in row order.

    `pivots` holds the diagonal of D as far as the elimination got; when
    it stopped early, `stopped_at` is the row of the first pivot >= 0,
    which is then the last entry of `pivots`.  `determinant` and `solve`
    need the complete, negative definite factorization.
    """

    __slots__ = ("size", "pivots", "stopped_at", "_columns")

    def __init__(self, size: int, pivots: list[Fraction],
                 columns: list[tuple[tuple[int, Fraction], ...]]):
        self.size = size
        self.pivots = tuple(pivots)
        self.stopped_at = len(columns) if len(columns) < size else None
        self._columns = tuple(columns)   # column k of L below the diagonal

    @property
    def negative_definite(self) -> bool:
        return self.stopped_at is None

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
        """Exact x with m x = b: L y = b, then D L^T x = y."""
        self._require_complete()
        if len(b) != self.size:
            raise DimensionError(
                f"right-hand side of length {len(b)} against {self.size} rows")
        x = [Fraction(v) for v in b]
        for k, column in enumerate(self._columns):
            if x[k]:
                for i, factor in column:
                    x[i] -= factor * x[k]
        for k, pivot in enumerate(self.pivots):
            x[k] /= pivot
        for k in reversed(range(self.size)):
            for i, factor in self._columns[k]:
                x[k] -= factor * x[i]
        return tuple(x)


def eliminate(m: QMatrix) -> Elimination:
    """Symmetric elimination of m in row order, stopping at a pivot >= 0.

    Valid for symmetric matrices only, so asymmetric input is rejected
    outright rather than symmetrized.
    """
    if not m.is_square:
        raise DimensionError(f"elimination needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                raise ValidationError(
                    f"elimination requires a symmetric matrix; "
                    f"entries ({i},{j}) and ({j},{i}) differ")
    return eliminate_upper(
        [{j: x for j, x in enumerate(m.row(i)[i:], start=i) if x} for i in range(n)])


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
