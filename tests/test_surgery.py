import random
from fractions import Fraction

import pytest

from plumbook import (AmbientData, SmoothingInvariants, ValidationError,
                      family_resolution_graph, milnor_fiber_invariants,
                      specialized, surface_mu, surgery_characteristics)

from .conftest import SEED


def family_inputs(N):
    params = specialized(N)
    graph = family_resolution_graph(params)
    return graph, milnor_fiber_invariants(graph, surface_mu(params))


class TestAmbientData:
    def test_plain_fields(self):
        ambient = AmbientData(chi=1, sigma=-100)
        assert (ambient.chi, ambient.sigma) == (1, -100)

    def test_rejects_non_integers(self):
        with pytest.raises(ValidationError):
            AmbientData(chi=1.5, sigma=0)
        with pytest.raises(ValidationError):
            AmbientData(chi=1, sigma="0")
        with pytest.raises(ValidationError):
            AmbientData(chi=True, sigma=0)


class TestSurgeryCharacteristics:
    def test_family_member_example(self):
        graph, invariants = family_inputs(3)
        report = surgery_characteristics(AmbientData(1, -100), graph, invariants)
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
        report = surgery_characteristics(AmbientData(100, -20), graph, invariants)
        assert report.chi == 111
        assert report.sigma == -27

    def test_cancellation_case(self, fixed_corpus):
        # hand-built invariants with mu = 0 and sigma = -1 on a single
        # (-2)-sphere: chi drops by exactly 1, sigma is unchanged
        graph = fixed_corpus["a1"]
        invariants = SmoothingInvariants(mu=0, sigma=-1, p_g=0, k_squared=0,
                                         h=0, m=1)
        report = surgery_characteristics(AmbientData(50, 7), graph, invariants)
        assert report.chi == 49
        assert report.sigma == 7

    def test_mismatched_graph_rejected(self, fixed_corpus):
        _, invariants = family_inputs(3)
        with pytest.raises(ValidationError, match="different graph"):
            surgery_characteristics(AmbientData(0, 0), fixed_corpus["a1"],
                                    invariants)

    def test_identities_hold_on_random_inputs(self, fixed_corpus):
        rng = random.Random(SEED + 3)
        graph = fixed_corpus["single_torus"]
        for _ in range(25):
            mu = 12 * rng.randint(1, 50) + 10  # keeps both divisibilities
            invariants = milnor_fiber_invariants(graph, mu)
            ambient = AmbientData(rng.randint(-50, 50), rng.randint(-50, 50))
            report = surgery_characteristics(ambient, graph, invariants)
            assert report.chi == (ambient.chi - graph.chi_neighborhood
                                  + 1 + invariants.mu)
            assert report.sigma == ambient.sigma + graph.m + invariants.sigma
            assert report.c1_squared == 2 * report.chi + 3 * report.sigma
            assert report.chi_h == Fraction(report.chi + report.sigma, 4)
            assert report.bmy_defect == 9 * report.chi_h - report.c1_squared

    def test_b1_note_present(self):
        graph, invariants = family_inputs(3)
        report = surgery_characteristics(AmbientData(0, 0), graph, invariants)
        assert "b1 = 0" in report.b1_note
        assert "assumed" in report.b1_note

    def test_integral_chi_h_flag(self, fixed_corpus):
        # chi + sigma = (2 - 2 + 1 + 0) + (0 + 1 - 1) = 1, not divisible
        graph = fixed_corpus["a1"]
        invariants = SmoothingInvariants(mu=0, sigma=-1, p_g=0, k_squared=0,
                                         h=0, m=1)
        report = surgery_characteristics(AmbientData(2, 0), graph, invariants)
        assert report.chi == 1
        assert report.sigma == 0
        assert not report.chi_h_is_integral
        # shift the ambient data so the sum becomes divisible by 4
        report = surgery_characteristics(AmbientData(5, 0), graph, invariants)
        assert (report.chi + report.sigma) % 4 == 0
        assert report.chi_h_is_integral
