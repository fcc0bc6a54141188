"""The rational blow-down as an oracle: Wahl's chains of rational curves.

Wahl's chains start at (-4) and grow by two moves: from (-b_1, ..., -b_k)
to (-2, -b_1, ..., -(b_k + 1)) or to (-(b_1 + 1), ..., -b_k, -2).  Every
vertex has genus 0.  Each such chain bounds a rational ball, the Milnor
fiber of a smoothing with mu = 0, so the closed forms below must hold:
|det I| is a square, K^2 = -m, sigma = p_g = 0, and the cut-and-paste
manifold has chi = X - m and sigma = S + m, b_2 dropping by m.
Fintushel and Stern's C_p = (-(p + 2), -2, ..., -2), with p - 1
vertices, is the branch that always takes the second move; its |det| is
p^2.  The determinants here come from the continuant of `tests/oracles.py`.
"""

import contextlib
import io
import itertools
import json
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbook import (canonical_cycle, milnor_fiber_invariants, parse_graph,
                      surgery_characteristics)
from plumbook.cli import main

from .oracles import Graph, chain, graph_text, tree_determinant


def wahl_chain(moves: str) -> Graph:
    """The chain that `moves` reaches from (-4): "L" prepends a -2 and lowers
    the last Euler number by 1, "R" lowers the first and appends a -2."""
    euler = [-4]
    for move in moves:
        if move == "L":
            euler = [-2] + euler[:-1] + [euler[-1] - 1]
        else:
            euler = [euler[0] - 1] + euler[1:] + [-2]
    return chain(euler)


def check_closed_forms(wahl: Graph, chi: int, sigma: int) -> None:
    graph = parse_graph(graph_text(wahl))
    m = len(wahl.euler)
    det = graph.factors.det
    assert det == tree_determinant(wahl.euler, wahl.pairs)
    assert isqrt(abs(det)) ** 2 == abs(det)
    assert canonical_cycle(graph).k_squared == -m
    invariants = milnor_fiber_invariants(graph, 0)
    assert (invariants.sigma, invariants.p_g) == (0, 0)
    result = surgery_characteristics(chi, sigma, invariants)
    assert (result.chi, result.sigma) == (chi - m, sigma + m)


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wahl") / "chain.pg"


class TestWahlChains:
    @pytest.mark.parametrize("length", range(8))
    def test_every_chain_of_up_to_eight_vertices(self, length):
        for moves in itertools.product("LR", repeat=length):
            check_closed_forms(wahl_chain(moves), 1, -7)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(moves=st.text(alphabet="LR", max_size=30),
           chi=st.integers(-10 ** 6, 10 ** 6), sigma=st.integers(-10 ** 6, 10 ** 6))
    @example(moves="L" * 30, chi=0, sigma=0)
    @example(moves="RL" * 15, chi=-1, sigma=1)
    def test_closed_forms_along_any_path(self, chain_path, moves, chi, sigma):
        wahl = wahl_chain(moves)
        check_closed_forms(wahl, chi, sigma)
        chain_path.write_text(graph_text(wahl))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["surgery", "-i", str(chain_path), "--mu", "0",
                         "--chi", str(chi), "--sigma", str(sigma), "--json"])
        assert code == 0
        report = json.loads(out.getvalue())
        m = len(wahl.euler)
        assert (report["m"], report["mu"]) == (m, 0)
        assert (report["sigma of smoothing"], report["p_g"]) == (0, 0)
        assert (report["chi"], report["sigma"]) == (chi - m, sigma + m)


class TestFintushelSternChains:
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 30, 101])
    def test_c_p_has_determinant_p_squared(self, p):
        wahl = wahl_chain("R" * (p - 2))
        assert wahl.euler == [-(p + 2)] + [-2] * (p - 2)
        graph = parse_graph(graph_text(wahl))
        det = tree_determinant(wahl.euler, wahl.pairs)
        assert graph.factors.det == det == (-1) ** (p - 1) * p * p
        check_closed_forms(wahl, 3, 1)
