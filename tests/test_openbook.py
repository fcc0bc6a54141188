import hashlib
import json
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbook.cli
import plumbook.openbook
from plumbook import (ConsistencyError, ValidationError, build_open_book,
                      minimal_open_book, parse_graph, serialize_graph,
                      verify_gluing)
from plumbook.cli import main

from .conftest import intersection_rows

GOLDEN = Path(__file__).resolve().parent / "golden"


def solved(graph, binding) -> tuple[int, tuple[int, ...]]:
    book = build_open_book(graph, binding)
    return book.scale, book.multiplicities


class TestSolveMultiplicities:
    # with no scale, N comes back as (k, M = k.N) with the least k making M integral
    def test_family_binding(self, fixed_corpus):
        result = solved(fixed_corpus["family_n3"], (3, 57))
        assert result == (1, (30, 87))

    def test_fractional_result(self, fixed_corpus):
        # N = (1/2,)
        assert solved(fixed_corpus["a1"], (1,)) == (2, (1,))

    def test_defining_equation(self, random_corpus):
        for graph, _, n in random_corpus[:40]:
            k, integral = solved(graph, n)
            assert all(x > 0 for x in integral)
            # I.(kN) = -k n, checked in integer arithmetic
            rows = intersection_rows(graph, list(integral))
            assert rows == [-k * v for v in n]
            # k is the least: a smaller common scale leaves some M_i / k' fractional
            assert gcd(k, *integral) == 1

    def test_rejects_bad_binding(self, fixed_corpus):
        graph = fixed_corpus["family_n3"]
        with pytest.raises(ValidationError):
            build_open_book(graph, (3,))
        with pytest.raises(ValidationError):
            build_open_book(graph, (0, 57))
        with pytest.raises(ValidationError):
            build_open_book(graph, (-3, 57))


class TestBuildOpenBook:
    def test_family_description(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57))
        assert book.scale == 1
        assert book.multiplicities == (30, 87)
        assert book.binding_counts == (3, 57)
        assert book.outer_slopes == ((90, 30), (87, 87))
        assert len(book.edge_curves) == 1
        curve = book.edge_curves[0]
        assert (curve.u, curve.v) == ("A", "B")
        assert curve.class_at_u == (87, -30)
        assert curve.class_at_v == (30, -87)
        assert curve.components == 3
        assert book.page_euler == -9864
        assert book.boundary_components == 60

    def test_half_multiplicity_forces_scale_two(self, fixed_corpus):
        book = build_open_book(fixed_corpus["a1"], (1,))
        assert book.scale == 2
        assert book.multiplicities == (1,)
        assert book.binding_counts == (2,)
        assert book.outer_slopes == ((2, 1),)
        assert book.page_euler == 0
        assert book.boundary_components == 2

    def test_even_binding_needs_no_scaling(self, fixed_corpus):
        book = build_open_book(fixed_corpus["a1"], (2,))
        assert book.scale == 1
        assert book.multiplicities == (1,)
        assert book.binding_counts == (2,)

    def test_torus_vertex(self, fixed_corpus):
        book = build_open_book(fixed_corpus["single_torus"], (2,))
        assert book.scale == 1
        assert book.multiplicities == (2,)
        assert book.outer_slopes == ((2, 2),)
        assert book.page_euler == 2 * (2 - 2 - 0 - 2)
        assert book.boundary_components == 2

    def test_explicit_scale_must_be_multiple(self, fixed_corpus):
        graph = fixed_corpus["a1"]
        book = build_open_book(graph, (1,), scale=4)
        assert book.multiplicities == (2,)
        assert book.binding_counts == (4,)
        with pytest.raises(ValidationError, match="multiple"):
            build_open_book(graph, (1,), scale=3)
        with pytest.raises(ValidationError):
            build_open_book(graph, (1,), scale=0)

    def test_page_euler_decomposes_over_edges(self, random_corpus):
        # independent regrouping: closed-cover term sum M_v (2 - 2 g_v),
        # minus (M_u + M_v) per edge instead of a degree sum, minus the
        # covering-degree-weighted binding punctures M_v b_v
        for graph, _, n in random_corpus[:40]:
            book = build_open_book(graph, n)
            mult = book.multiplicities
            total = sum(M * (2 - 2 * v.genus)
                        for v, M in zip(graph.vertices, mult))
            total -= sum(mult[i] + mult[j] for i, j in graph.edges)
            total -= sum(M * b for M, b in zip(mult, book.binding_counts))
            assert book.page_euler == total

    def test_gluing_checks_pass(self, random_corpus):
        for graph, _, n in random_corpus[:40]:
            book = build_open_book(graph, n)
            assert verify_gluing(book) == ()
            # the edge identity that is true by construction: plumbing swaps
            # gamma and beta and carries the class at u to minus that at v
            mult = book.multiplicities
            for (i, j), curve in zip(graph.edges, book.edge_curves):
                assert (curve.u, curve.v) == (graph.ids[i], graph.ids[j])
                assert curve.class_at_v == (mult[i], -mult[j])
                swapped = (curve.class_at_u[1], curve.class_at_u[0])
                assert swapped == (-curve.class_at_v[0], -curve.class_at_v[1])
                assert curve.components == gcd(mult[i], mult[j])


class TestVerifyGluing:
    def test_detects_tampered_multiplicities(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57))
        broken = book._replace(multiplicities=(30, 88))
        failures = verify_gluing(broken)
        assert failures
        assert all("multiplicity relation" in f for f in failures)

    # moving M_v by +-1 moves the vertex relation by +-e_v != 0 at v and by
    # +-1 at each neighbour, and leaves every other row alone
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_names_exactly_the_moved_vertex_and_its_neighbours(self, random_corpus, data):
        graph, _, n = data.draw(st.sampled_from(random_corpus))
        book = build_open_book(graph, n)
        v = data.draw(st.integers(0, graph.m - 1))
        step = data.draw(st.sampled_from((-1, 1)))
        mult = list(book.multiplicities)
        mult[v] += step
        failures = verify_gluing(book._replace(multiplicities=tuple(mult)))
        expected = {v} | {j for i, j in graph.edges if i == v} | {
            i for i, j in graph.edges if j == v}
        named = {f.split(":")[0] for f in failures}
        assert named == {f"vertex {graph.ids[i]}" for i in expected}
        assert len(failures) == len(expected)


class TestEquivalenceCertificate:
    """The minimal divisor's open book, which the `openbook` certificate reports."""

    def test_family_certificate(self, fixed_corpus, tmp_path, capsys):
        graph = fixed_corpus["family_n3"]
        book = minimal_open_book(graph)
        assert book.multiplicities == (30, 87)
        assert book.binding == (3, 57)
        assert book.scale == 1
        assert book.binding_counts == (3, 57)
        path = tmp_path / "n3.pg"
        path.write_text(serialize_graph(graph), encoding="utf-8")
        assert main(["openbook", "-i", str(path), "--json"]) == 0
        certificate = json.loads(capsys.readouterr().out)["certificate"]
        expected = hashlib.sha256(serialize_graph(graph).encode("utf-8")).hexdigest()
        assert certificate["graph sha256"] == expected

    def test_certificates_on_fixed_corpus(self, fixed_corpus):
        for name, graph in fixed_corpus.items():
            book = minimal_open_book(graph)
            binding = [-r for r in intersection_rows(graph, book.multiplicities)]
            assert tuple(binding) == book.binding, name
            assert min(binding) >= 1, name
            assert book.scale == 1, name

    def test_sides_agree_up_to_construction(self, random_corpus):
        # one book stands for both sides of the certificate, so its
        # configuration and smoothing binding counts agree by construction;
        # what is left to check is the book itself, by integer row sums
        for graph, _, _ in random_corpus[:25]:
            book = minimal_open_book(graph)
            assert book.scale == 1
            assert intersection_rows(graph, book.multiplicities) == [
                -b for b in book.binding_counts]
            assert min(book.binding) >= 1

    # a search whose divisor and binding disagree fails the gluing check
    @pytest.mark.parametrize("tamper", ["divisor", "binding"])
    def test_tampered_round_trip_is_caught(self, tamper, fixed_corpus, monkeypatch):
        found = {"divisor": ((31, 87), (3, 57)), "binding": ((30, 87), (3, 58))}[tamper]
        monkeypatch.setattr(plumbook.openbook, "_minimal_divisor", lambda graph: found)
        with pytest.raises(ConsistencyError, match="multiplicity relation"):
            minimal_open_book(fixed_corpus["family_n3"])


@pytest.fixture
def gluing_checks(monkeypatch):
    calls = []

    def counting(description):
        calls.append(description.multiplicities)
        return verify_gluing(description)

    for module in (plumbook.openbook, plumbook.cli):
        if hasattr(module, "verify_gluing"):
            monkeypatch.setattr(module, "verify_gluing", counting)
    return calls


# --n assembles one book, and so does the certificate; a --k other than the
# least scale assembles the book once more.  The report reuses the check
# made at assembly instead of running its own.  `divisor` reads the
# minimal book, so its report rests on that book's one check too.
@pytest.mark.parametrize("args, books", [
    (["openbook", "--n", "A=3,B=57"], [(30, 87)]),
    (["openbook"], [(30, 87)]),
    (["openbook", "--k", "2"], [(30, 87), (60, 174)]),
    (["divisor"], [(30, 87)]),
])
@pytest.mark.parametrize("json", [False, True])
def test_openbook_checks_each_assembled_description_once(args, books, json, gluing_checks,
                                                          tmp_path, capsys):
    path = tmp_path / "n3.pg"
    path.write_text("vertex A e=-3 g=1\nvertex B e=-1 g=28\nedge A B\n", encoding="utf-8")
    command, *options = args
    assert main([command, "-i", str(path), *options] + (["--json"] if json else [])) == 0
    assert gluing_checks == books
    out = capsys.readouterr().out
    shown = {"openbook": "gluing verified", "divisor": "condition holds"}[command]
    assert (f'"{shown}": true' if json else f"{shown}: yes\n") in out


@pytest.fixture
def binding_checks(monkeypatch):
    calls = []
    check = plumbook.openbook._int_vector

    def counting(values, length, name):
        vector = check(values, length, name)
        calls.append(vector)
        return vector

    monkeypatch.setattr(plumbook.openbook, "_int_vector", counting)
    return calls


@pytest.mark.parametrize("scale", [None, 2])
def test_build_open_book_checks_its_binding_once(scale, binding_checks, fixed_corpus):
    book = build_open_book(fixed_corpus["family_n3"], (3, 57), scale=scale)
    assert binding_checks == [(3, 57)]
    assert book.binding == (3, 57)


def test_a_binding_may_be_any_iterable_of_ints():
    graph = parse_graph((GOLDEN / "family_n3.pg").read_text(encoding="utf-8"))
    book = build_open_book(graph, iter([3, 57]))
    assert book.multiplicities == (30, 87)
    assert book.binding == (3, 57)
