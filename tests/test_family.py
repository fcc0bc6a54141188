from fractions import Fraction

import pytest

from plumbook import (ConsistencyError, FamilyParams, SmoothingInvariants,
                      ValidationError, canonical_cycle,
                      closed_form_check, default_t, family_resolution_graph,
                      milnor_fiber_invariants, plane_curve_mu, surface_mu)

from .conftest import s3_params

N_SET = (3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20)

# confirmed through the full pipeline before being written down here;
# K^2 and p_g for N=6 also re-derived by hand from the 2x2 system
PINNED_CLOSED_FORMS = {
    3: (9865, -5047, 1219),
    5: (205347, -86437, 29816),
    6: (518044, -208860, 77444),
}


class TestFamilyParams:
    def test_valid_member(self):
        params = FamilyParams(s=3, t=57, N=3)
        assert (params.s, params.t, params.N) == (3, 57, 3)

    def test_specialized_defaults(self):
        assert default_t(3) == 57
        assert default_t(5) == 117

    def test_nonpositive_exponents(self):
        with pytest.raises(ValidationError, match="positive"):
            FamilyParams(s=0, t=5, N=3)
        with pytest.raises(ValidationError, match="positive"):
            FamilyParams(s=3, t=-1, N=3)

    def test_small_N(self):
        with pytest.raises(ValidationError, match="at least 3"):
            FamilyParams(s=3, t=5, N=2)

    def test_divisibility(self):
        with pytest.raises(ValidationError, match="divide"):
            FamilyParams(s=3, t=4, N=3)

    def test_parity_guard_fires_before_gcd(self):
        # s+t = 12 is divisible by N-1 = 4, but (s-1)(N-2) = 3 is odd
        with pytest.raises(ValidationError, match="must be even"):
            FamilyParams(s=2, t=10, N=5)

    def test_gcd_guard(self):
        with pytest.raises(ValidationError, match="gcd"):
            FamilyParams(s=3, t=87, N=4)


class TestMilnorNumbers:
    def test_brieskorn(self):
        # plane_curve_mu is d(d-1) + 1 - r plus the Milnor number
        # (t-1)((N-1)t-1) of the point x^t + y^{(N-1)t} left by the blow-up
        for (s, t, N), brieskorn in [((3, 57, 3), 6328),   # x^57 + y^114: 56 * 113
                                     ((1, 2, 4), 5),       # x^2 + y^6: 1 * 5
                                     ((98, 1, 100), 0)]:   # x + y^99 is smooth
            d, r = s + t, s + 1
            assert plane_curve_mu(FamilyParams(s, t, N)) - d * (d - 1) - 1 + r == brieskorn
        with pytest.raises(ValidationError):
            plane_curve_mu(FamilyParams(s=3, t=0, N=3))

    def test_plane_mu_n3(self):
        assert plane_curve_mu(s3_params(3)) == 9865

    def test_plane_mu_alternative_expansion(self):
        # same quantity grouped differently:
        # (s+t)(s+t-1) + (N-1)t(t-1) + 1 - s - t
        for N in (3, 5, 6, 8):
            params = s3_params(N)
            s, t = params.s, params.t
            expected = (s + t) * (s + t - 1) + (N - 1) * t * (t - 1) + 1 - s - t
            assert plane_curve_mu(params) == expected

    def test_surface_mu_is_suspension_multiple(self):
        for N in (3, 5, 6):
            params = s3_params(N)
            assert surface_mu(params) == (N - 2) * plane_curve_mu(params)
        assert surface_mu(s3_params(3)) == 9865


class TestResolutionGraph:
    def test_n3_graph(self):
        graph = family_resolution_graph(s3_params(3))
        assert [(v.id, v.euler, v.genus) for v in graph.vertices] == [
            ("A", -3, 1), ("B", -1, 28)]
        assert graph.edges == ((0, 1),)

    def test_n5_graph(self):
        graph = family_resolution_graph(s3_params(5))
        assert [(v.euler, v.genus) for v in graph.vertices] == [(-5, 3), (-1, 174)]

    def test_graphs_validate(self):
        for N in N_SET:
            graph = family_resolution_graph(s3_params(N))
            assert graph.m == 2
            assert len(graph.edges) == 1

    def test_h_matches_genus_sum(self):
        for N in (3, 5, 6):
            params = s3_params(N)
            graph = family_resolution_graph(params)
            expected = ((params.s - 1) * (params.N - 2)
                        + (params.t - 1) * (params.N - 2))
            assert graph.h == expected


class TestMilnorFiberInvariants:
    def test_pinned_members(self):
        for N, (mu, sigma, p_g) in PINNED_CLOSED_FORMS.items():
            graph = family_resolution_graph(s3_params(N))
            invariants = milnor_fiber_invariants(graph, surface_mu(s3_params(N)))
            assert invariants.mu == mu
            assert invariants.sigma == sigma
            assert invariants.p_g == p_g

    def test_n3_details(self):
        graph = family_resolution_graph(s3_params(3))
        invariants = milnor_fiber_invariants(graph, 9865)
        assert invariants.k_squared == -4707
        assert invariants.graph.h == 58
        assert invariants.graph.m == 2

    def test_n6_k_squared(self):
        graph = family_resolution_graph(s3_params(6))
        assert canonical_cycle(graph).k_squared == -410694

    def test_ade_anchors(self, fixed_corpus):
        # A_n chain with mu = n: sigma = -n, p_g = 0
        for name, n in (("a1", 1), ("a2", 2), ("a3", 3)):
            invariants = milnor_fiber_invariants(fixed_corpus[name], n)
            assert invariants.k_squared == 0
            assert invariants.sigma == -n
            assert invariants.p_g == 0
        d4 = milnor_fiber_invariants(fixed_corpus["d4"], 4)
        assert (d4.k_squared, d4.sigma, d4.p_g) == (0, -4, 0)

    def test_torus_vertex_example(self, fixed_corpus):
        invariants = milnor_fiber_invariants(fixed_corpus["single_torus"], 10)
        assert invariants.sigma == -8
        assert invariants.p_g == 1

    def test_mismatched_mu_raises(self):
        graph = family_resolution_graph(s3_params(3))
        with pytest.raises(ConsistencyError, match="divisible by 3"):
            milnor_fiber_invariants(graph, 9866)

    def test_non_integral_k_squared_raises(self, fixed_corpus):
        with pytest.raises(ConsistencyError, match="not an integer"):
            milnor_fiber_invariants(fixed_corpus["single_genus2"], 6)

    def test_negative_p_g_raises(self, fixed_corpus):
        # mu = -11 keeps both divisibilities but drives p_g below zero
        with pytest.raises(ConsistencyError, match="negative"):
            milnor_fiber_invariants(fixed_corpus["a1"], -11)

    def test_plain_container(self, fixed_corpus):
        # the container performs no validation; surgery relies on that
        graph = fixed_corpus["a1"]
        invariants = SmoothingInvariants(graph=graph, mu=0, sigma=-1, p_g=0, k_squared=0)
        assert invariants == (graph, 0, -1, 0, 0)


class TestClosedForm:
    def test_pinned_values(self):
        for N, (mu, sigma, _) in PINNED_CLOSED_FORMS.items():
            values = closed_form_check(N)
            assert values.mu == mu
            assert values.sigma == Fraction(sigma)
            assert values.sigma.denominator == 1

    def test_rejects_bad_N(self):
        with pytest.raises(ValidationError, match="at least 3"):
            closed_form_check(2)
        with pytest.raises(ValidationError, match="divisible by 3"):
            closed_form_check(4)
        with pytest.raises(ValidationError, match="divisible by 3"):
            closed_form_check(7)

    @pytest.mark.parametrize("N, shown", [(5.0, "5.0"), (True, "True"), ("5", "'5'"),
                                          (None, "None"), (Fraction(5), "5")])
    @pytest.mark.parametrize("call", [closed_form_check, default_t])
    def test_N_must_be_an_int(self, call, N, shown):
        with pytest.raises(ValidationError) as caught:
            call(N)
        assert str(caught.value) == f"N must be an integer, got {shown}"

    def test_an_int_N_gives_what_it_gave(self):
        assert default_t(5) == 117 and default_t(-1) == -63
        assert closed_form_check(5) == (205347, Fraction(-86437))

    def test_matches_pipeline_on_full_set(self):
        for N in N_SET:
            params = s3_params(N)
            graph = family_resolution_graph(params)
            invariants = milnor_fiber_invariants(graph, surface_mu(params))
            values = closed_form_check(N)
            assert invariants.mu == values.mu
            assert Fraction(invariants.sigma) == values.sigma
