from fractions import Fraction
from math import lcm

import pytest

from plumbook import (PlumbingGraph, ValidationError, adjunction_rhs,
                      canonical_cycle)

from .conftest import intersection_rows


class TestAdjunctionRhs:
    def test_family_n3(self, fixed_corpus):
        assert adjunction_rhs(fixed_corpus["family_n3"]) == (3, 55)

    def test_all_minus_two_spheres_vanish(self, fixed_corpus):
        assert adjunction_rhs(fixed_corpus["a3"]) == (0, 0, 0)

    def test_mixed(self, fixed_corpus):
        assert adjunction_rhs(fixed_corpus["path_232"]) == (0, 3, 0)
        assert adjunction_rhs(fixed_corpus["single_torus"]) == (1,)
        assert adjunction_rhs(fixed_corpus["single_genus2"]) == (5,)


class TestCanonicalCycle:
    def test_family_n3(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["family_n3"])
        assert cycle.coefficients == (-29, -84)
        assert cycle.k_squared == -4707
        assert cycle.k_squared_is_integral

    def test_family_n5(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["family_n5"])
        assert cycle.coefficients == (-89, -436)
        assert cycle.k_squared == -152093

    def test_ade_graphs_have_zero_cycle(self, fixed_corpus):
        for name in ("a1", "a2", "a3", "d4"):
            cycle = canonical_cycle(fixed_corpus[name])
            assert cycle.coefficients == (0,) * fixed_corpus[name].m
            assert cycle.k_squared == 0

    def test_single_torus(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["single_torus"])
        assert cycle.coefficients == (-1,)
        assert cycle.k_squared == -1

    def test_non_integral_square(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["single_genus2"])
        assert cycle.coefficients == (Fraction(-5, 3),)
        assert cycle.k_squared == Fraction(-25, 3)
        assert not cycle.k_squared_is_integral

    def test_path_232(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["path_232"])
        assert cycle.coefficients == (Fraction(-3, 4), Fraction(-3, 2),
                                      Fraction(-3, 4))
        assert cycle.k_squared == Fraction(-9, 2)

    def test_triangle(self, fixed_corpus):
        cycle = canonical_cycle(fixed_corpus["triangle"])
        assert cycle.coefficients == (-1, -1, -1)
        assert cycle.k_squared == -3

    def test_defining_equation_holds_exactly(self, fixed_corpus, random_corpus):
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus[:30])
        for graph in graphs:
            cycle = canonical_cycle(graph)
            # by integer row sums over the edge list, after clearing denominators
            k = lcm(*(r.denominator for r in cycle.coefficients))
            scaled = [int(k * r) for r in cycle.coefficients]
            assert intersection_rows(graph, scaled) == [k * b for b in cycle.adjunction_rhs]

    def test_k_squared_is_dot_product(self, random_corpus):
        for graph, _, _ in random_corpus[:30]:
            cycle = canonical_cycle(graph)
            total = sum((r * b for r, b in
                         zip(cycle.coefficients, cycle.adjunction_rhs)),
                        Fraction(0))
            assert cycle.k_squared == total

    def test_rejects_invalid_graph(self):
        # an invalid graph cannot be built, so there is nothing to solve
        with pytest.raises(ValidationError):
            canonical_cycle(PlumbingGraph([("a", -2, 0), ("b", -2, 0)]))
