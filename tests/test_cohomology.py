from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from urprior.cohomology import (
    coboundary_columns,
    coboundary_rank,
    cohomology_dim,
    noncoboundary_cocycle,
)
from urprior.compat import CycleCertificate, decide_urprior, pairwise_compatibility
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets, spanning_forest
from urprior.numerics import _left_kernel_vector, _reduce
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from . import dense_reference as dense
from .dense_reference import Matrix, coboundary_matrix
from .generators import annulus, holonomy_from_pmfs, hub_system, random_complex
from .overlap_reference import connected_components


def _edge_values(X, c):
    """The values of the {edge: int} map c, in canonical edge order; c covers exactly the edges."""
    assert list(c) == list(X.simplices(1))
    return [c[e] for e in X.simplices(1)]


class TestDimensions:
    def test_filled_triangle(self, tri_filled):
        assert (coboundary_rank(tri_filled, 0), coboundary_rank(tri_filled, 1)) == (2, 1)
        assert cohomology_dim(tri_filled, 1) == 0

    def test_unfilled_triangle(self, tri_unfilled):
        assert (coboundary_rank(tri_unfilled, 0), coboundary_rank(tri_unfilled, 1)) == (2, 0)
        assert cohomology_dim(tri_unfilled, 1) == 1

    def test_plugged_triangle_ring(self, plugged):
        # three triangles around the rim kill every 1-cocycle class
        assert (coboundary_rank(plugged, 0), coboundary_rank(plugged, 1)) == (3, 3)
        assert cohomology_dim(plugged, 1) == 0

    def test_hollow_tetrahedron(self, ex4):
        X = build_overlap_complex(ex4)
        assert cohomology_dim(X, 1) == 0
        assert cohomology_dim(X, 2) == 1

    def test_circle_graphs(self, c4, c5):
        assert cohomology_dim(c4, 1) == 1
        assert cohomology_dim(c5, 1) == 1

    def test_wedge_of_two_holes(self, wedge):
        assert cohomology_dim(wedge, 1) == 2

    def test_degree_zero_rejected(self, tri_filled):
        with pytest.raises(ValueError):
            cohomology_dim(tri_filled, 0)
        with pytest.raises(ValueError):
            coboundary_rank(tri_filled, -1)

    def test_beyond_dimension_everything_vanishes(self, tri_unfilled):
        assert cohomology_dim(tri_unfilled, 2) == 0
        assert cohomology_dim(tri_unfilled, 7) == 0

    def test_far_past_the_dimension_takes_no_count(self, tri_unfilled, ex1, monkeypatch):
        # rank delta_k = 0 for k >= dim and X_k = 0 for k > dim, answered at
        # once on a listed and on a counted complex
        counted = build_overlap_complex(ex1)
        assert counted._links is not None
        counts_only_through_the_next_degree(monkeypatch)
        for X in (tri_unfilled, counted):
            for k in (X.dim, X.dim + 1, 10**9):
                assert coboundary_rank(X, k) == 0
                assert cohomology_dim(X, k + 1) == 0


def counts_only_through_the_next_degree(monkeypatch):
    """Make ``counts(upto)`` of a complex, counted or listed, raise when asked past ``dim + 1``."""

    def guarded(X, upto=None, counts=SimplicialComplex.counts):
        if upto is not None and upto > X.dim + 1:
            raise AssertionError(f"counts asked through {upto}, dimension {X.dim}")
        return counts(X, upto)

    monkeypatch.setattr(SimplicialComplex, "counts", guarded)


class TestCocycles:
    def test_no_witness_across_a_hole(self, tri_unfilled):
        # the canonical cocycle is killed by the dense delta_1, and the
        # dense span test finds no vertex function whose coboundary it is;
        # the second complex has the hole in one component, beside another
        X = from_facets("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
        for Y in (tri_unfilled, X):
            values = _edge_values(Y, noncoboundary_cocycle(Y))
            assert not any(dense.mat_vec(coboundary_matrix(Y, 1), values))
            assert dense.coboundary_witness(Y, 1, values) is None


class TestNonCoboundary:
    def test_unfilled_triangle_canonical_pick(self, tri_unfilled):
        # edges (0, 1) and (0, 2) span the tree: the twist sits on the non-tree edge (1, 2)
        assert noncoboundary_cocycle(tri_unfilled) == {(0, 1): 0, (0, 2): 0, (1, 2): 1}

    def test_none_when_h1_trivial(self, tri_filled, plugged):
        assert noncoboundary_cocycle(tri_filled) is None
        assert noncoboundary_cocycle(plugged) is None

    def test_none_without_edges(self):
        X = from_facets(("a", "b"), [("a",), ("b",)])
        assert noncoboundary_cocycle(X) is None

    def test_integrality_and_normalization(self, c4, c5, wedge):
        for X in (c4, c5, wedge):
            c = noncoboundary_cocycle(X)
            assert c is not None
            values = _edge_values(X, c)
            assert all(type(v) is int for v in values)
            leading = next(v for v in values if v != 0)
            assert leading > 0

    def test_agrees_with_dimension_count(self):
        rng = random.Random(31)
        for _ in range(40):
            X = random_complex(rng)
            c = noncoboundary_cocycle(X)
            if cohomology_dim(X, 1) == 0:
                assert c is None
            else:
                values = _edge_values(X, c)
                assert not any(dense.mat_vec(coboundary_matrix(X, 1), values))
                assert dense.coboundary_witness(X, 1, values) is None

    def test_relabeling_invariance(self):
        # renaming vertices while keeping their order leaves every
        # cohomology computation untouched
        X = from_facets(("1", "2", "3", "4"), [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
        Y = from_facets(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        assert cohomology_dim(X, 1) == cohomology_dim(Y, 1) == 1
        cx, cy = noncoboundary_cocycle(X), noncoboundary_cocycle(Y)
        assert cx is not None and cy is not None
        assert list(cx.values()) == list(cy.values())


def _reference_complexes(seed: int):
    rng = random.Random(seed)
    out = [random_complex(rng) for _ in range(120)] + [random_complex(rng, 9) for _ in range(40)]
    out += [annulus(rng, m) for m in (3, 4, 5, 6, 8) for _ in range(4)]
    return out


class TestAgainstDenseReference:
    """Sparse results equal the dense rref reference of tests/dense_reference.py."""

    def test_dimensions(self):
        for X in _reference_complexes(51):
            ranks = [dense.rank(coboundary_matrix(X, k)) for k in range(4)]
            assert [coboundary_rank(X, k) for k in range(4)] == ranks
            for k in range(1, 4):
                assert cohomology_dim(X, k) == len(X.simplices(k)) - ranks[k] - ranks[k - 1]

    def test_left_kernel_vector(self):
        # the back-substitution on each coboundary map equals the first
        # dense kernel vector of its transpose, the boundary map
        for X in _reference_complexes(52):
            for k in (0, 1, 2):
                m = coboundary_matrix(X, k)
                basis = dense.nullspace_basis(Matrix.from_rows(dense.columns(m), cols=m.rows))
                z = _left_kernel_vector(_reduce(coboundary_columns(X, k), m.rows), m.rows)
                got = None if z is None else tuple(Fraction(z.get(i, 0)) for i in range(m.rows))
                assert got == (dense._coprime_integers(basis[0]) if basis else None)

    def test_noncoboundary_cocycle(self):
        # the canonical pick equals its dense definition; on the holed
        # complexes the emitted system rebuilds X, agrees pairwise, and has
        # no prior, by a cycle whose holonomy recomputes from the pmfs
        rng = random.Random(59)
        complexes = _reference_complexes(53) + [random_complex(rng, 12) for _ in range(40)]
        holed = 0
        for X in complexes:
            c = noncoboundary_cocycle(X)
            assert c == dense.noncoboundary_cocycle(X)
            if c is None:
                continue
            holed += 1
            system = generate_counterexample(X)
            assert build_overlap_complex(system) == X
            assert pairwise_compatibility(system).compatible
            certificate = decide_urprior(system).certificate
            assert isinstance(certificate, CycleCertificate)
            assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
            assert feasibility_oracle(system) is None
        assert len(complexes) >= 200 and holed >= 50, (len(complexes), holed)

    def test_coboundary_witness(self):
        # the canonical cocycle has no dense witness; the coboundary of a
        # random integer vertex function has one, so the span test can find one
        rng = random.Random(54)
        for X in _reference_complexes(55):
            c = noncoboundary_cocycle(X)
            if c is not None:
                assert dense.coboundary_witness(X, 1, _edge_values(X, c)) is None
            f = [rng.randint(-3, 3) for _ in X.vertices]
            delta_f = dense.mat_vec(coboundary_matrix(X, 0), f)
            assert dense.coboundary_witness(X, 1, delta_f) is not None

    def test_is_cocycle(self):
        # the dense delta_1 kills the canonical cocycle on every reference complex
        for X in _reference_complexes(57):
            c = noncoboundary_cocycle(X)
            if c is not None:
                assert not any(dense.mat_vec(coboundary_matrix(X, 1), _edge_values(X, c)))


def _full_skeleton(n: int, max_dim: int = 2):
    """Every group of at most max_dim + 1 of n vertices is a simplex."""
    vertices = [str(i) for i in range(n)]
    return from_facets(vertices, itertools.combinations(vertices, min(n, max_dim + 1)))


class TestCycleSpaceRank:
    """rank delta_1 from the triangles' boundaries on the non-tree edges equals the dense rank."""

    def _complexes(self):
        rng = random.Random(58)
        out = [random_complex(rng) for _ in range(150)] + [random_complex(rng, 10) for _ in range(60)]
        out += [annulus(rng, m) for m in (3, 4, 5, 7, 12) for _ in range(3)]
        out += [_full_skeleton(n) for n in range(1, 10)]
        out += [_full_skeleton(n, 3) for n in (4, 6)]
        # two full skeletons side by side, a hollow triangle and an isolated vertex
        out.append(
            from_facets(
                [str(i) for i in range(12)],
                list(itertools.combinations("0123", 3))
                + list(itertools.combinations("4567", 3))
                + [("8", "9"), ("9", "10"), ("8", "10")],
            )
        )
        return out

    def test_equals_the_dense_rank(self):
        kinds = {"no edges": 0, "no triangles": 0, "disconnected": 0, "h1 > 0": 0, "full": 0}
        for X in self._complexes():
            expected = dense.rank(coboundary_matrix(X, 1))
            assert coboundary_rank(X, 1) == expected
            h1 = len(spanning_forest(X).non_tree) - expected
            assert cohomology_dim(X, 1) == h1
            assert h1 == len(X.simplices(1)) - expected - dense.rank(coboundary_matrix(X, 0))
            kinds["no edges"] += not X.simplices(1)
            kinds["no triangles"] += bool(X.simplices(1)) and not X.simplices(2)
            kinds["disconnected"] += len(connected_components(X)) > 1
            kinds["h1 > 0"] += h1 > 0
            kinds["full"] += len(X.simplices(2)) == comb(len(X.vertices), 3) > 0
        assert min(kinds.values()) >= 10, kinds

    def test_overlap_complexes_of_hubs(self):
        # every pair and triple overlaps: the boundaries of the triangles
        # through vertex 0 alone fill the cycle space; the hub's complex
        # collapses and is counted, the 2-skeleton is listed
        for n in (3, 5, 9):
            X = build_overlap_complex(hub_system(random.Random(n), n)[0])
            skeleton = _full_skeleton(n)
            assert tuple(map(X.simplices, range(3))) == skeleton.by_dim
            for Y in (X, skeleton):
                assert coboundary_rank(Y, 1) == dense.rank(coboundary_matrix(Y, 1)) == (n - 1) * (n - 2) // 2
                assert cohomology_dim(Y, 1) == 0
