import itertools
import random

import pytest

from plumbook import PlumbingGraph, ValidationError

from .conftest import SEED, eliminate
from .oracles import leibniz_determinant, row_sums


def principal_minor_negative_definite(rows):
    """All-principal-minors characterization for symmetric matrices."""
    n = len(rows)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            if (-1) ** size * leibniz_determinant(sub) <= 0:
                return False
    return True


def random_negative_definite(rng, n):
    """Symmetric, strictly diagonally dominant with a negative diagonal."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    for i in range(n):
        rows[i][i] = -sum(abs(x) for x in rows[i]) - rng.randint(1, 4)
    return rows


def product(rows, x):
    """Dense rows . x by the oracles' row sums, sharing no code with the solve."""
    return row_sums([dict(enumerate(row)) for row in rows], x)


class TestDeterminant:
    def test_two_by_two(self):
        assert eliminate([[-3, 1], [1, -1]]).det == 2

    def test_singular_is_zero(self):
        # a null direction: the last leading minor is 0, so there are no factors
        rows = [[-1, 1], [1, -1]]
        assert leibniz_determinant(rows) == 0
        assert eliminate(rows) is None

    def test_matches_permutation_sum_on_random_matrices(self):
        rng = random.Random(SEED)
        for _ in range(120):
            rows = random_negative_definite(rng, rng.randint(1, 4))
            assert eliminate(rows).det == leibniz_determinant(rows)

    def test_exact_on_large_entries(self):
        # minors far past 64 bits: every division must still be exact
        big = 10 ** 30
        m = [[-3 * big, big + 7, 5], [big + 7, -2 * big, big - 1], [5, big - 1, -4 * big]]
        factors = eliminate(m)
        assert factors.det == leibniz_determinant(m)
        y = factors.solve_times_det((1, -2, 3))
        assert product(m, y) == [factors.det * b for b in (1, -2, 3)]
        # no entry off the diagonal is negative, and m z <= m z: the
        # rounded solve of an integral solution's right-hand side is it
        z = (7, -big, 3 * big + 1)
        assert factors.solve_rounded_up(product(m, z)) == z


class TestSolveAndInverse:
    # solve_times_det returns det(m) m^-1 b; det [[-3, 1], [1, -1]] = 2
    def test_adjunction_solution(self):
        m = [[-3, 1], [1, -1]]
        assert eliminate(m).solve_times_det((3, 55)) == (2 * -29, 2 * -84)

    def test_divisor_solution(self):
        m = [[-3, 1], [1, -1]]
        assert eliminate(m).solve_times_det((-3, -57)) == (2 * 30, 2 * 87)

    def test_inverse_two_by_two(self):
        # the solutions for the unit vectors are the columns of det(m) m^-1,
        # the adjugate
        factors = eliminate([[-2, 1], [1, -2]])
        assert factors.solve_times_det((1, 0)) == (-2, -1)
        assert factors.solve_times_det((0, 1)) == (-1, -2)

    def test_singular_raises(self):
        # a singular matrix has no factors to solve with, and a graph with
        # one is rejected when it is built
        assert eliminate([[-1, 1], [1, -1]]) is None
        assert eliminate([[0, 0], [0, 0]]) is None
        with pytest.raises(ValidationError, match=r"\(pivot at vertex b\)$"):
            PlumbingGraph([("a", -1, 0), ("b", -1, 0)], [("a", "b")])
        with pytest.raises(ValidationError, match=r"\(pivot at vertex a\)$"):
            PlumbingGraph([("a", 0, 0)])

    def test_permuted_rows_solve_in_the_callers_order(self):
        # the minimum degree takes row 1 first, then 0 and 2; the columns
        # are keyed by rows of m, so vectors go in and come out in m's order
        m = [[-3, 1, 1], [1, -2, 0], [1, 0, -4]]
        factors = eliminate(m)
        assert factors.order == (1, 0, 2)
        det = leibniz_determinant(m)
        assert factors.det == det
        assert product(m, factors.solve_times_det((1, -2, 5))) == [det, -2 * det, 5 * det]

    def test_shape_mismatches(self):
        factors = eliminate([[-2, 1], [1, -2]])
        with pytest.raises(ValidationError):
            factors.solve_times_det((1, 2, 3))

    def test_random_solve_and_inverse_are_exact(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_negative_definite(rng, n)
            factors = eliminate(m)
            det = leibniz_determinant(m)
            b = [rng.randint(-9, 9) for _ in range(n)]
            assert product(m, factors.solve_times_det(b)) == [det * x for x in b]
            units = [[int(i == j) for i in range(n)] for j in range(n)]
            columns = [factors.solve_times_det(unit) for unit in units]
            # m times the adjugate, column by column, is det times the identity
            assert [product(m, column) for column in columns] == \
                [[det * x for x in unit] for unit in units]


class TestNegativeDefinite:
    def test_basic_cases(self):
        def definite(rows):
            return eliminate(rows) is not None

        assert definite([[-1]])
        assert not definite([[0]])
        assert not definite([[1]])
        assert definite([[-2, 1], [1, -2]])
        assert not definite([[-1, 1], [1, -1]])
        assert not definite([[-1, 2], [2, -1]])

    def test_matches_all_principal_minors_oracle(self):
        rng = random.Random(SEED + 2)
        agree_positive = 0
        for _ in range(200):
            n = rng.choice((4, 5))
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-6, 6)
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            expected = principal_minor_negative_definite(rows)
            assert (eliminate(rows) is not None) == expected
            agree_positive += expected
        # the sample must exercise both outcomes to mean anything
        assert 0 < agree_positive < 200

