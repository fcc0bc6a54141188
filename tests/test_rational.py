import itertools
import random
from fractions import Fraction

import pytest

from plumbook import (DimensionError, QMatrix, ValidationError, eliminate,
                      lcm_of_denominators, qvector)

from .conftest import SEED


def leibniz_determinant(rows):
    """Permutation-sum determinant, independent of the elimination code."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


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


class TestQMatrix:
    def test_entries_become_fractions(self):
        m = QMatrix([[1, "1/2"], [Fraction(3, 4), 0]])
        assert m[0, 1] == Fraction(1, 2)
        assert isinstance(m[1, 1], Fraction)

    def test_shape_and_rows(self):
        m = QMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.row(1) == (4, 5, 6)
        assert not m.is_square

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            QMatrix([])
        with pytest.raises(DimensionError):
            QMatrix([[]])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            QMatrix([[1, 2], [3]])

    def test_equality_and_hash(self):
        a = QMatrix([[1, 2], [3, 4]])
        b = QMatrix([[Fraction(2, 2), 2], [3, 4]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != QMatrix([[1, 2], [3, 5]])

    def test_mul_vector(self):
        m = QMatrix([[-3, 1], [1, -1]])
        assert m.mul_vector((-29, -84)) == (3, 55)
        with pytest.raises(DimensionError):
            m.mul_vector((1, 2, 3))


class TestDeterminant:
    def test_two_by_two(self):
        assert eliminate(QMatrix([[-3, 1], [1, -1]])).determinant() == 2

    def test_singular_is_zero(self):
        # a null direction: the last leading minor, and so the last pivot, is 0
        factors = eliminate(QMatrix([[-1, 1], [1, -1]]))
        assert factors.pivots == (-1, 0)
        assert factors.stopped_at == 1
        with pytest.raises(ValidationError, match="not negative definite"):
            factors.determinant()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eliminate(QMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_matches_permutation_sum_on_random_matrices(self):
        rng = random.Random(SEED)
        for _ in range(120):
            rows = random_negative_definite(rng, rng.randint(1, 4))
            assert eliminate(QMatrix(rows)).determinant() == leibniz_determinant(rows)

    def test_exact_on_rational_entries(self):
        m = QMatrix([["-1/2", "1/5"], ["1/5", "-1/3"]])
        assert eliminate(m).determinant() == Fraction(1, 6) - Fraction(1, 25)


class TestSolveAndInverse:
    def test_adjunction_solution(self):
        m = QMatrix([[-3, 1], [1, -1]])
        assert eliminate(m).solve((3, 55)) == (-29, -84)

    def test_divisor_solution(self):
        m = QMatrix([[-3, 1], [1, -1]])
        assert eliminate(m).solve((-3, -57)) == (30, 87)

    def test_inverse_two_by_two(self):
        # the columns of the inverse are the solutions for the unit vectors
        factors = eliminate(QMatrix([[-2, 1], [1, -2]]))
        third = Fraction(1, 3)
        assert factors.solve((1, 0)) == (-2 * third, -third)
        assert factors.solve((0, 1)) == (-third, -2 * third)

    def test_singular_raises(self):
        with pytest.raises(ValidationError, match="pivot 1 is 0"):
            eliminate(QMatrix([[-1, 1], [1, -1]])).solve((1, 1))
        with pytest.raises(ValidationError, match="pivot 0 is 0"):
            eliminate(QMatrix([[0, 0], [0, 0]])).solve((1, 1))

    def test_shape_mismatches(self):
        factors = eliminate(QMatrix([[-2, 1], [1, -2]]))
        with pytest.raises(DimensionError):
            factors.solve((1, 2, 3))
        with pytest.raises(DimensionError):
            eliminate(QMatrix([[1, 2, 3]]))

    def test_random_solve_and_inverse_are_exact(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = QMatrix(random_negative_definite(rng, n))
            factors = eliminate(m)
            b = [rng.randint(-9, 9) for _ in range(n)]
            assert m.mul_vector(factors.solve(b)) == qvector(b)
            units = [[int(i == j) for i in range(n)] for j in range(n)]
            columns = [factors.solve(unit) for unit in units]
            # m times the inverse, column by column, is the identity
            assert [m.mul_vector(column) for column in columns] == [qvector(u) for u in units]


class TestNegativeDefinite:
    def test_basic_cases(self):
        def definite(rows):
            return eliminate(QMatrix(rows)).negative_definite

        assert definite([[-1]])
        assert not definite([[0]])
        assert not definite([[1]])
        assert definite([[-2, 1], [1, -2]])
        assert not definite([[-1, 1], [1, -1]])
        assert not definite([[-1, 2], [2, -1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            eliminate(QMatrix([[-1, 1], [0, -1]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eliminate(QMatrix([[1, 2]]))

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
            assert eliminate(QMatrix(rows)).negative_definite == expected
            agree_positive += expected
        # the sample must exercise both outcomes to mean anything
        assert 0 < agree_positive < 200


class TestHelpers:
    def test_qvector(self):
        assert qvector([1, "2/4"]) == (Fraction(1), Fraction(1, 2))
        assert qvector(()) == ()

    def test_lcm_of_denominators(self):
        assert lcm_of_denominators([Fraction(1, 2), Fraction(5, 6)]) == 6
        assert lcm_of_denominators([Fraction(3), 7]) == 1
        assert lcm_of_denominators([]) == 1
        assert lcm_of_denominators([Fraction(30, 1), Fraction(87, 1)]) == 1
