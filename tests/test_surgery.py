import random
from fractions import Fraction

import pytest

from plumbook import (SmoothingInvariants, ValidationError, family_resolution_graph,
                      milnor_fiber_invariants, surface_mu, surgery_characteristics)
from plumbook.cli import main

from .conftest import SEED, s3_params


def family_invariants(N):
    params = s3_params(N)
    return milnor_fiber_invariants(family_resolution_graph(params), surface_mu(params))


class TestAmbientData:
    def test_rejects_non_integers(self):
        invariants = family_invariants(3)
        with pytest.raises(ValidationError, match=r"^chi must be an integer, got 1\.5$"):
            surgery_characteristics(1.5, 0, invariants)
        with pytest.raises(ValidationError, match="^sigma must be an integer, got '0'$"):
            surgery_characteristics(1, "0", invariants)
        with pytest.raises(ValidationError, match="^chi must be an integer, got True$"):
            surgery_characteristics(True, 0, invariants)


class TestSurgeryCharacteristics:
    def test_family_member_example(self):
        report = surgery_characteristics(1, -100, family_invariants(3))
        assert report.chi == 9922
        assert report.sigma == -5145
        assert report.c1_squared == 4409
        assert report.chi_h == Fraction(4777, 4)
        assert not report.chi_h_is_integral
        assert report.bmy_defect == 9 * Fraction(4777, 4) - 4409

    def test_torus_vertex_example(self, fixed_corpus):
        graph = fixed_corpus["single_torus"]
        invariants = milnor_fiber_invariants(graph, 10)
        assert invariants.sigma == -8
        report = surgery_characteristics(100, -20, invariants)
        assert report.chi == 111
        assert report.sigma == -27

    def test_cancellation_case(self, fixed_corpus):
        # hand-built invariants with mu = 0 and sigma = -1 on a single
        # (-2)-sphere: chi drops by exactly 1, sigma is unchanged
        graph = fixed_corpus["a1"]
        invariants = SmoothingInvariants(graph=graph, mu=0, sigma=-1, p_g=0, k_squared=0)
        report = surgery_characteristics(50, 7, invariants)
        assert report.chi == 49
        assert report.sigma == 7

    def test_identities_hold_on_random_inputs(self, fixed_corpus):
        rng = random.Random(SEED + 3)
        graph = fixed_corpus["single_torus"]
        for _ in range(25):
            mu = 12 * rng.randint(1, 50) + 10  # keeps both divisibilities
            invariants = milnor_fiber_invariants(graph, mu)
            chi, sigma = rng.randint(-50, 50), rng.randint(-50, 50)
            report = surgery_characteristics(chi, sigma, invariants)
            assert report.chi == chi - graph.chi_neighborhood + 1 + invariants.mu
            assert report.sigma == sigma + graph.m + invariants.sigma
            assert report.c1_squared == 2 * report.chi + 3 * report.sigma
            assert report.chi_h == Fraction(report.chi + report.sigma, 4)
            assert report.bmy_defect == 9 * report.chi_h - report.c1_squared

    def test_b1_note_present(self, capsys):
        assert main(["surgery", "--N", "3", "--chi", "0", "--sigma", "0"]) == 0
        note = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("b1 note: ")]
        assert len(note) == 1
        assert "b1 = 0" in note[0]
        assert "assumed" in note[0]

    def test_integral_chi_h_flag(self, fixed_corpus):
        # chi + sigma = (2 - 2 + 1 + 0) + (0 + 1 - 1) = 1, not divisible
        graph = fixed_corpus["a1"]
        invariants = SmoothingInvariants(graph=graph, mu=0, sigma=-1, p_g=0, k_squared=0)
        report = surgery_characteristics(2, 0, invariants)
        assert report.chi == 1
        assert report.sigma == 0
        assert not report.chi_h_is_integral
        # shift the ambient data so the sum becomes divisible by 4
        report = surgery_characteristics(5, 0, invariants)
        assert (report.chi + report.sigma) % 4 == 0
        assert report.chi_h_is_integral
