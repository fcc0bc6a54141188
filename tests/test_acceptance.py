"""Acceptance gate: one test and one printed pass/fail line per criterion.

Expected values are recomputed independently inside each criterion
(inline quartics, integer row sums over the edge list, enumeration)
rather than taken from the code under test.  All comparisons are exact;
there are no tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from plumbook import (build_open_book, canonical_cycle, family_resolution_graph,
                      milnor_fiber_invariants, minimal_open_book, parse_graph, plane_curve_mu,
                      surface_mu, verify_gluing)

from .conftest import (BRUTE_FORCE_NAMES, brute_force_minimum, is_feasible,
                       intersection_rows, s3_params)
from .oracles import chain, graph_text

N_SET = (3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20)


@contextmanager
def criterion(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}")


def test_criterion_1_closed_form_cross_validation(capsys):
    with criterion(capsys, "closed-form quartics reproduced exactly for all "
                           "twelve N, in under one second"):
        start = time.perf_counter()
        results = {}
        for N in N_SET:
            params = s3_params(N)
            graph = family_resolution_graph(params)
            cycle = canonical_cycle(graph)
            plane = plane_curve_mu(params)
            mu = surface_mu(params)
            assert mu == (N - 2) * plane
            invariants = milnor_fiber_invariants(graph, mu)
            assert Fraction(invariants.k_squared) == cycle.k_squared
            expected_mu = 900 * N**4 - 3810 * N**3 + 5292 * N**2 - 2705 * N + 322
            expected_sigma = (-300 * N**4 + 960 * N**3
                              - Fraction(2348, 3) * N**2
                              + Fraction(379, 3) * N - 2)
            assert invariants.mu == expected_mu, N
            assert Fraction(invariants.sigma) == expected_sigma, N
            results[N] = (invariants.mu, invariants.sigma)
        elapsed = time.perf_counter() - start
        assert results[3] == (9865, -5047)
        assert results[5] == (205347, -86437)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_consistency_integers(capsys):
    with criterion(capsys, "p_g nonnegative integer and signature numerator "
                           "divisible by 3 for all twelve N"):
        for N in N_SET:
            params = s3_params(N)
            graph = family_resolution_graph(params)
            cycle = canonical_cycle(graph)
            assert cycle.k_squared.denominator == 1
            k_squared = int(cycle.k_squared)
            mu = surface_mu(params)
            assert (2 * mu + k_squared + graph.m + 2 * graph.h) % 3 == 0, N
            p_g_numerator = mu - k_squared + graph.h - graph.m
            assert p_g_numerator % 12 == 0, N
            assert p_g_numerator >= 0, N
            invariants = milnor_fiber_invariants(graph, mu)
            assert invariants.p_g == p_g_numerator // 12, N


def test_criterion_3_multiplicity_roundtrip(capsys, random_corpus):
    with criterion(capsys, f"multiplicity roundtrip N = d with k = 1 on "
                           f"{len(random_corpus)} random graphs"):
        assert len(random_corpus) >= 200
        for graph, d, n in random_corpus:
            book = build_open_book(graph, n)
            assert (book.scale, book.multiplicities) == (1, tuple(d))


def test_criterion_4_minimal_divisor_oracle(capsys, fixed_corpus):
    with criterion(capsys, "minimal divisor equals the brute-force pointwise "
                           "minimum on every m <= 3 corpus graph"):
        for name in BRUTE_FORCE_NAMES:
            graph = fixed_corpus[name]
            book = minimal_open_book(graph)
            assert book.multiplicities == brute_force_minimum(graph, 200), name
        family = minimal_open_book(fixed_corpus["family_n3"])
        assert family.multiplicities == (30, 87)
        assert family.binding == (3, 57)


def test_criterion_5_scaling_stays_feasible(capsys, fixed_corpus,
                                            random_corpus):
    with criterion(capsys, "k-fold multiples of every corpus divisor stay "
                           "feasible for k in {2, 3, 5}"):
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus)
        for graph in graphs:
            book = minimal_open_book(graph)
            for k in (2, 3, 5):
                scaled = build_open_book(graph, book.binding, scale=k).multiplicities
                assert scaled == tuple(k * d for d in book.multiplicities)
                assert is_feasible(graph, scaled)


def test_criterion_6_open_book_validity(capsys, random_corpus):
    with criterion(capsys, "vertex relation, positivity and gluing hold for "
                           "every random-corpus open book"):
        for graph, _, n in random_corpus:
            book = build_open_book(graph, n)
            assert all(x > 0 for x in book.multiplicities)
            rows = intersection_rows(graph, list(book.multiplicities))
            assert rows == [-b for b in book.binding_counts]
            assert verify_gluing(book) == ()


def _ade_graphs():
    def branched(n, legs):
        """The (-2) chain c0, ..., c<n-1> with a (-2) vertex joined to it by each leg."""
        legs = "".join(f"vertex {v} e=-2 g=0\nedge {at} {v}\n" for v, at in legs)
        return parse_graph(graph_text(chain([-2] * n)) + legs)

    graphs = {f"A{n}": branched(n, []) for n in range(1, 6)}
    graphs |= {f"D{n}": branched(n - 2, [("f1", "c0"), ("f2", "c0")]) for n in (4, 5)}
    return graphs | {f"E{n}": branched(n - 1, [("b", "c2")]) for n in (6, 7, 8)}


def test_criterion_7_exact_anchors(capsys, fixed_corpus):
    with criterion(capsys, "A1 smoothing anchors and K^2 = 0 on all-(-2) "
                           "ADE graphs"):
        invariants = milnor_fiber_invariants(fixed_corpus["a1"], 1)
        assert invariants.sigma == -1
        assert invariants.p_g == 0
        assert invariants.k_squared == 0
        for name, graph in _ade_graphs().items():
            cycle = canonical_cycle(graph)
            assert cycle.coefficients == (0,) * graph.m, name
            assert cycle.k_squared == 0, name


def test_criterion_8_equivalence_certificates(capsys, fixed_corpus,
                                              random_corpus):
    with criterion(capsys, "certificate round trip: -I.d = binding >= 1 and "
                           "multiplicities = k.d with k = 1 over the whole corpus"):
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus)
        for graph in graphs:
            book = minimal_open_book(graph)
            binding = [-r for r in intersection_rows(graph, book.multiplicities)]
            assert tuple(binding) == book.binding
            assert min(binding) >= 1
            assert book.scale == 1
            assert intersection_rows(graph, book.multiplicities) == [
                -b for b in book.binding_counts]
