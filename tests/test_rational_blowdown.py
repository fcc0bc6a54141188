"""The rational blow-down as an oracle: Wahl's chains of rational curves.

Wahl's chains start at (-4) and grow by two moves: from (-b_1, ..., -b_k)
to (-2, -b_1, ..., -(b_k + 1)) or to (-(b_1 + 1), ..., -b_k, -2).  Every
vertex has genus 0.  Each such chain bounds a rational ball, the Milnor
fiber of a smoothing with mu = 0, so the closed forms below must hold:
|det I| is a square, K^2 = -m, sigma = p_g = 0, and the cut-and-paste
manifold has chi = X - m and sigma = S + m, b_2 dropping by m.
Fintushel and Stern's C_p = (-(p + 2), -2, ..., -2), with p - 1
vertices, is the branch that always takes the second move; its |det| is
p^2.  The determinants here come from a continuant computed in this file.
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


def wahl_chain(moves: str) -> tuple[int, ...]:
    """The weights b_i of the chain (-b_1, ..., -b_k) that `moves` reaches
    from (-4): "L" prepends a 2 and raises the last weight, "R" raises the
    first weight and appends a 2."""
    weights = [4]
    for move in moves:
        if move == "L":
            weights = [2] + weights[:-1] + [weights[-1] + 1]
        else:
            weights = [weights[0] + 1] + weights[1:] + [2]
    return tuple(weights)


def chain_text(weights) -> str:
    lines = [f"vertex c{i} e={-b} g=0" for i, b in enumerate(weights)]
    lines += [f"edge c{i} c{i + 1}" for i in range(len(weights) - 1)]
    return "\n".join(lines) + "\n"


def continuant(weights) -> int:
    """det of the tridiagonal matrix with -b_i on the diagonal and 1 beside it."""
    before, det = 0, 1
    for b in weights:
        before, det = det, -b * det - before
    return det


def check_closed_forms(weights, chi: int, sigma: int) -> None:
    graph = parse_graph(chain_text(weights))
    m = len(weights)
    det = graph.factors.det
    assert det == continuant(weights)
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
        weights = wahl_chain(moves)
        check_closed_forms(weights, chi, sigma)
        chain_path.write_text(chain_text(weights))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["surgery", "-i", str(chain_path), "--mu", "0",
                         "--chi", str(chi), "--sigma", str(sigma), "--json"])
        assert code == 0
        report = json.loads(out.getvalue())
        m = len(weights)
        assert (report["m"], report["mu"]) == (m, 0)
        assert (report["sigma of smoothing"], report["p_g"]) == (0, 0)
        assert (report["chi"], report["sigma"]) == (chi - m, sigma + m)


class TestFintushelSternChains:
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 30, 101])
    def test_c_p_has_determinant_p_squared(self, p):
        weights = (p + 2,) + (2,) * (p - 2)
        assert weights == wahl_chain("R" * (p - 2))
        graph = parse_graph(chain_text(weights))
        assert graph.factors.det == continuant(weights) == (-1) ** (p - 1) * p * p
        check_closed_forms(weights, 3, 1)
