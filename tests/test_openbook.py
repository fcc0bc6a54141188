import dataclasses
import hashlib
from fractions import Fraction
from math import lcm

import pytest

import plumbook.cli
import plumbook.openbook
from plumbook import (ConsistencyError, GluingCheck, MinimalDivisor,
                      ValidationError, build_open_book, equivalence_certificate,
                      minimal_openbook_divisor, serialize_graph,
                      solve_multiplicities, verify_gluing)
from plumbook.cli import main

from .conftest import intersection_rows


class TestSolveMultiplicities:
    def test_family_binding(self, fixed_corpus):
        result = solve_multiplicities(fixed_corpus["family_n3"], (3, 57))
        assert result == (30, 87)

    def test_fractional_result(self, fixed_corpus):
        assert solve_multiplicities(fixed_corpus["a1"], (1,)) == (Fraction(1, 2),)

    def test_defining_equation(self, random_corpus):
        for graph, _, n in random_corpus[:40]:
            result = solve_multiplicities(graph, n)
            assert all(x > 0 for x in result)
            # I.(kN) = -k n, checked in integer arithmetic
            k = lcm(*(x.denominator for x in result))
            integral = [int(k * x) for x in result]
            rows = intersection_rows(graph, integral)
            assert rows == [-k * v for v in n]

    def test_rejects_bad_binding(self, fixed_corpus):
        graph = fixed_corpus["family_n3"]
        with pytest.raises(ValidationError):
            solve_multiplicities(graph, (3,))
        with pytest.raises(ValidationError):
            solve_multiplicities(graph, (0, 57))
        with pytest.raises(ValidationError):
            solve_multiplicities(graph, (-3, 57))


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
            check = verify_gluing(book)
            assert check.ok
            assert bool(check)
            assert check.failures == ()


class TestVerifyGluing:
    def test_detects_tampered_multiplicities(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57))
        broken = dataclasses.replace(book, multiplicities=(30, 88))
        check = verify_gluing(broken)
        assert not check.ok
        assert any("multiplicity relation" in f for f in check.failures)

    def test_detects_tampered_edge_class(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57))
        curve = dataclasses.replace(book.edge_curves[0], class_at_u=(87, 30))
        broken = dataclasses.replace(book, edge_curves=(curve,))
        check = verify_gluing(broken)
        assert not check.ok
        assert any("maps to" in f for f in check.failures)

    def test_detects_wrong_component_count(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57))
        curve = dataclasses.replace(book.edge_curves[0], components=4)
        broken = dataclasses.replace(book, edge_curves=(curve,))
        assert not verify_gluing(broken).ok


class TestEquivalenceCertificate:
    def test_family_certificate(self, fixed_corpus):
        graph = fixed_corpus["family_n3"]
        certificate = equivalence_certificate(graph)
        assert certificate.verdict
        assert certificate.divisor == (30, 87)
        assert certificate.binding == (3, 57)
        assert certificate.scale == 1
        assert certificate.configuration_side.binding_counts == (3, 57)
        assert certificate.configuration_side.multiplicities == (30, 87)
        expected = hashlib.sha256(
            serialize_graph(graph).encode("utf-8")).hexdigest()
        assert certificate.graph_hash == expected

    def test_certificates_on_fixed_corpus(self, fixed_corpus):
        for name, graph in fixed_corpus.items():
            certificate = equivalence_certificate(graph)
            assert certificate.verdict, name
            assert all(b >= 1 for b in certificate.binding), name
            found = minimal_openbook_divisor(graph)
            assert certificate.divisor == found.divisor
            k = certificate.scale
            assert (certificate.configuration_side.multiplicities
                    == tuple(k * d for d in found.divisor))

    def test_sides_agree_up_to_construction(self, random_corpus):
        # one book stands for both sides: it carries the divisor's binding
        # and gives the divisor back as its multiplicities
        for graph, _, _ in random_corpus[:25]:
            certificate = equivalence_certificate(graph)
            book = certificate.configuration_side
            assert certificate.verdict
            assert book.binding == certificate.binding
            assert book.multiplicities == certificate.divisor
            assert verify_gluing(book).ok

    @pytest.mark.parametrize("tamper", ["divisor", "solve", "solve, gluing unchecked"])
    def test_tampered_round_trip_is_caught(self, tamper, fixed_corpus, monkeypatch):
        if tamper == "divisor":
            monkeypatch.setattr(plumbook.openbook, "minimal_openbook_divisor",
                                lambda graph: MinimalDivisor((31, 87), (3, 57)))
        else:
            monkeypatch.setattr(plumbook.openbook, "solve_multiplicities",
                                lambda graph, binding: (Fraction(31), Fraction(87)))
        if tamper == "solve, gluing unchecked":
            monkeypatch.setattr(plumbook.openbook, "verify_gluing",
                                lambda description: GluingCheck(ok=True, failures=()))
            assert not equivalence_certificate(fixed_corpus["family_n3"]).verdict
        else:
            with pytest.raises(ConsistencyError):
                equivalence_certificate(fixed_corpus["family_n3"])


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
# made at assembly instead of running its own.
@pytest.mark.parametrize("args, books", [
    (["--n", "A=3,B=57"], [(30, 87)]),
    ([], [(30, 87)]),
    (["--k", "2"], [(30, 87), (60, 174)]),
])
@pytest.mark.parametrize("json", [False, True])
def test_openbook_checks_each_assembled_description_once(args, books, json, gluing_checks,
                                                          tmp_path, capsys):
    path = tmp_path / "n3.pg"
    path.write_text("vertex A e=-3 g=1\nvertex B e=-1 g=28\nedge A B\n", encoding="utf-8")
    assert main(["openbook", "-i", str(path), *args] + (["--json"] if json else [])) == 0
    assert gluing_checks == books
    out = capsys.readouterr().out
    assert ('"gluing verified": true' if json else "gluing verified: yes\n") in out


@pytest.fixture
def binding_checks(monkeypatch):
    calls = []
    check = plumbook.openbook._check_binding

    def counting(graph, binding):
        calls.append(tuple(binding))
        return check(graph, binding)

    monkeypatch.setattr(plumbook.openbook, "_check_binding", counting)
    return calls


@pytest.mark.parametrize("scale", [None, 2])
def test_build_open_book_checks_its_binding_once(scale, binding_checks, fixed_corpus):
    book = build_open_book(fixed_corpus["family_n3"], (3, 57), scale=scale)
    assert binding_checks == [(3, 57)]
    assert book.binding == (3, 57)
