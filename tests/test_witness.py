from __future__ import annotations

import random
from fractions import Fraction

import pytest

from urprior.cohomology import cohomology_dim, noncoboundary_cocycle
from urprior.compat import CycleCertificate, decide_urprior, pairwise_compatibility
from urprior.complexes import build_overlap_complex, from_facets
from urprior.oracle import feasibility_oracle
from urprior.witness import AmbiguousLabelError, NoHoleError, generate_counterexample

from . import dense_reference as dense
from .generators import holonomy_from_pmfs, random_complex


class TestGoldenWitness:
    def test_unfilled_triangle_system(self, tri_unfilled):
        system = generate_counterexample(tri_unfilled)
        assert system.space.outcomes == ("{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}")
        assert system.names == ("1", "2", "3")
        # the twist sits on the non-tree edge {2,3}: agent 2 weighs it double
        agents = {a.name: a for a in system.agents}
        assert agents["2"].pmf == {
            "{2}": Fraction(1, 4),
            "{1,2}": Fraction(1, 4),
            "{2,3}": Fraction(1, 2),
        }
        for name in ("1", "3"):
            assert set(agents[name].pmf.values()) == {Fraction(1, 3)}

    def test_unfilled_triangle_is_irreconcilable(self, tri_unfilled):
        system = generate_counterexample(tri_unfilled)
        assert pairwise_compatibility(system).compatible
        result = decide_urprior(system)
        assert result.verdict == "none"
        assert result.certificate is not None
        assert feasibility_oracle(system) is None


class TestNoHole:
    def test_filled_triangle_refused(self, tri_filled):
        with pytest.raises(NoHoleError):
            generate_counterexample(tri_filled)

    def test_plugged_ring_refused(self, plugged):
        with pytest.raises(NoHoleError):
            generate_counterexample(plugged)

    def test_edgeless_complex_refused(self):
        from urprior.complexes import from_facets

        X = from_facets(("a", "b"), [("a",), ("b",)])
        with pytest.raises(NoHoleError):
            generate_counterexample(X)


class TestAmbiguousLabels:
    def test_vertex_label_equal_to_an_edge_label_is_refused(self):
        X = from_facets(("a", "b", "c", "a,b"), [("a", "b"), ("b", "c"), ("c", "a"), ("a,b",)])
        with pytest.raises(AmbiguousLabelError, match=r"'\{a,b\}'"):
            generate_counterexample(X)

    def test_edge_labels_that_collide_are_refused(self):
        # edges {a,b,c} of ("a,b", "c") and ("a", "b,c") share one label
        X = from_facets(
            ("a", "a,b", "b,c", "c"), [("a,b", "c"), ("c", "a"), ("a", "b,c"), ("b,c", "a,b")]
        )
        with pytest.raises(AmbiguousLabelError, match=r"'\{a,b,c\}'"):
            generate_counterexample(X)

    def test_hole_free_complex_is_refused_first(self):
        X = from_facets(("a", "b", "a,b"), [("a", "b"), ("a,b",)])
        with pytest.raises(NoHoleError):
            generate_counterexample(X)


class TestRoundTrip:
    def test_overlap_complex_recovers_input(self, tri_unfilled, c4, c5, wedge):
        for X in (tri_unfilled, c4, c5, wedge):
            system = generate_counterexample(X)
            rebuilt = build_overlap_complex(system)
            assert rebuilt == X

    def test_pairwise_compatible_but_no_prior(self, c4, c5, wedge):
        for X in (c4, c5, wedge):
            system = generate_counterexample(X)
            assert pairwise_compatibility(system).compatible
            assert decide_urprior(system).verdict == "none"
            assert feasibility_oracle(system) is None

    def test_random_holed_complexes(self):
        rng = random.Random(61)
        tried = 0
        for _ in range(200):
            X = random_complex(rng)
            try:
                system = generate_counterexample(X)
            except NoHoleError:
                continue
            tried += 1
            assert build_overlap_complex(system) == X
            assert pairwise_compatibility(system).compatible
            assert decide_urprior(system).verdict == "none"
            if tried >= 25:
                break
        assert tried >= 25

    def test_large_random_holed_complexes(self):
        # 20 draws of 20 to 60 vertices with H^1 >= 1: the emitted system
        # must rebuild X, pass the pairwise test, and fail only by a cycle
        # whose holonomy recomputes from the pmfs alone
        rng = random.Random(62)
        tried = 0
        while tried < 20:
            X = random_complex(rng, 60)
            if len(X.vertices) < 20 or cohomology_dim(X, 1) == 0:
                continue
            tried += 1
            assert noncoboundary_cocycle(X) == dense.noncoboundary_cocycle(X)
            system = generate_counterexample(X)
            assert build_overlap_complex(system) == X
            assert pairwise_compatibility(system).compatible
            certificate = decide_urprior(system).certificate
            assert isinstance(certificate, CycleCertificate)
            assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
            assert feasibility_oracle(system) is None


class TestTwistStructure:
    def test_cycle_holonomy_realizes_the_chosen_cocycle(self, tri_unfilled):
        # per-agent normalization shifts each edge ratio by a coboundary,
        # which telescopes away around any cycle: the holonomy is exactly
        # 2 raised to the cocycle's signed sum along that cycle
        from urprior.cohomology import noncoboundary_cocycle
        from urprior.compat import ratio_cochain

        twist = noncoboundary_cocycle(tri_unfilled)
        system = generate_counterexample(tri_unfilled)
        r = ratio_cochain(system)
        assert r.ratios == {
            (0, 1): Fraction(4, 3),
            (0, 2): Fraction(1),
            (1, 2): Fraction(3, 2),
        }

        def signed(u, v):
            return twist[(u, v)] if u < v else -twist[(v, u)]

        def ratio(u, v):
            return r.ratios[(u, v)] if u < v else 1 / r.ratios[(v, u)]

        cycle = [0, 1, 2]
        holonomy = Fraction(1)
        exponent = 0
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            holonomy *= ratio(u, v)
            exponent += signed(u, v)
        assert exponent == 1
        assert holonomy == Fraction(2) ** exponent

    def test_twist_stays_noncoboundary(self, c4):
        from urprior.cohomology import noncoboundary_cocycle

        twist = noncoboundary_cocycle(c4)
        values = [twist[e] for e in c4.simplices(1)]
        assert not any(dense.mat_vec(dense.coboundary_matrix(c4, 1), values))
        assert dense.coboundary_witness(c4, 1, values) is None
