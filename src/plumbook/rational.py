"""Exact linear algebra on integer symmetric matrices, in Python ints.

`eliminate_upper` is a symmetric fraction-free elimination (Bareiss
1968) of the nonzero entries on and above the diagonal, rows in order,
no pivoting.  With D_0 = 1 and D_{k+1} = b_kk the leading minors, step k
sets b_ij = (D_{k+1} b_ij - b_ik b_kj) // D_k for i, j > k.  Each entry
is then a minor (Sylvester's identity), so every division is exact, no
gcd is taken, and no entry outgrows Hadamard's bound on det m.  An entry
that step k does not touch would only be scaled by D_{k+1}/D_k, so it is
brought up to date when next read: b D_k // D_s, if last updated at step
s.  m is negative definite iff D_k D_{k+1} < 0 for every k, the
elimination stops where that fails, and det m = D_m.  `solve_times_det`
returns the integral det(m) m^{-1} b.  The operations are set by the
fill-in, and the fill-in by the row order: O(m^3) at worst, O(m) on a
tree taken leaf first.  A caller that chooses the order hands over
P^T m P, with the same determinant and definiteness, and sets
`Elimination.order`; vectors go in and come out indexed by rows of m.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError, ValidationError


class Elimination:
    """Fraction-free factors of an integer symmetric matrix, rows in order.

    `minors` holds D_0 = 1, D_1, ... as far as the elimination got; if it
    stopped early, at the row `stopped_at` = k with D_k D_{k+1} >= 0,
    D_{k+1} is the last.  `determinant` and `solve_times_det` need the
    complete factorization.  `order[k]` is the row of the caller's matrix
    eliminated k-th, the identity unless the caller sets it.
    """

    __slots__ = ("size", "minors", "stopped_at", "order", "_columns")

    def __init__(self, size: int, minors: list[int],
                 columns: list[tuple[tuple[int, int], ...]]):
        self.size = size
        self.minors = tuple(minors)
        self.stopped_at = len(columns) if len(columns) < size else None
        self.order = tuple(range(size))
        self._columns = tuple(columns)   # column k below the diagonal, at step k

    @property
    def negative_definite(self) -> bool:
        return self.stopped_at is None

    @property
    def l_nonzeros(self) -> int:
        """Entries kept below the diagonal: the matrix's own plus fill-in."""
        return sum(len(column) for column in self._columns)

    def determinant(self) -> int:
        """The last leading minor, of a complete factorization."""
        if (k := self.stopped_at) is not None:
            raise ValidationError(
                f"matrix is not negative definite: leading minors {k} and {k + 1} "
                f"are {self.minors[k]} and {self.minors[k + 1]}")
        return self.minors[-1]

    def solve_times_det(self, b: Sequence[int]) -> tuple[int, ...]:
        """y = det(m) m^{-1} b for integral b, in integers.

        b, as one more column, takes the matrix's steps, so c_k is its
        entry at step k.  Row k at step k reads D_{k+1} x_k + sum(b_ki x_i)
        = c_k, so with y = D_m x, y_k = (D_m c_k - sum(b_ki y_i)) // D_{k+1}.
        """
        det, n = self.determinant(), self.size
        if len(b) != n:
            raise DimensionError(f"right-hand side of length {len(b)} against {n} rows")
        minors, columns = self.minors, self._columns
        c = [b[v] for v in self.order]
        updated = [0] * n    # the step at which c_i was last updated
        for k, column in enumerate(columns):
            d_k = minors[k]
            if updated[k] != k:
                c[k] = c[k] * d_k // minors[updated[k]]
            c_k = c[k]
            if c_k:
                d_next = minors[k + 1]
                for i, b_ki in column:
                    c_i = c[i]
                    if updated[i] != k:
                        c_i = c_i * d_k // minors[updated[i]]
                    c[i] = (d_next * c_i - b_ki * c_k) // d_k
                    updated[i] = k + 1
        for k in reversed(range(n)):    # c_i is y_i for every i > k
            y_k = det * c[k]
            for i, b_ki in columns[k]:
                y_k -= b_ki * c[i]
            c[k] = y_k // minors[k + 1]
        solution = dict(zip(self.order, c))
        return tuple(solution[v] for v in range(n))


def eliminate_upper(upper: list[dict[int, int]]) -> Elimination:
    """Fraction-free symmetric elimination from the nonzero integer a_ij,
    j >= i, as upper[i][j].  The dicts are consumed."""
    n = len(upper)
    minors, columns = [1], []
    updated: list[dict[int, int]] = [{} for _ in range(n)]   # absent: step 0
    for k in range(n):
        row, row_updated = upper[k], updated[k]
        d_k = minors[k]
        for j, b_kj in row.items():
            s = row_updated.get(j, 0)
            if s != k:
                row[j] = b_kj * d_k // minors[s]
        pivot = row.pop(k, 0)
        minors.append(pivot)
        if d_k * pivot >= 0:
            break
        column = tuple(row.items())
        for i, b_ki in column:
            target, target_updated = upper[i], updated[i]
            for j, b_kj in column:
                if j >= i:
                    b_ij, s = target.get(j, 0), target_updated.get(j, 0)
                    if s != k:
                        b_ij = b_ij * d_k // minors[s]
                    target[j] = (pivot * b_ij - b_ki * b_kj) // d_k
                    target_updated[j] = k + 1
        columns.append(column)
    return Elimination(n, minors, columns)
