from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from urprior.cohomology import (
    Cochain,
    _coboundary_rank,
    coboundary,
    coboundary_dim,
    coboundary_witness,
    cochain_from_vector,
    cocycle_dim,
    cohomology_dim,
    is_cocycle,
    noncoboundary_cocycle,
)
from urprior.compat import CycleCertificate, decide_urprior, pairwise_compatibility
from urprior.complexes import (
    build_overlap_complex,
    coboundary_columns,
    connected_components,
    from_facets,
    spanning_forest,
)
from urprior.numerics import _left_kernel_vector, _reduce
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from . import dense_reference as dense
from .dense_reference import Matrix, coboundary_matrix
from .generators import annulus, holonomy_from_pmfs, hub_system, random_complex


def _edge_cochain(X, values):
    return Cochain(X, 1, {s: Fraction(v) for s, v in zip(X.simplices(1), values)})


class TestDimensions:
    def test_filled_triangle(self, tri_filled):
        assert (cocycle_dim(tri_filled, 1), coboundary_dim(tri_filled, 1)) == (2, 2)
        assert cohomology_dim(tri_filled, 1) == 0

    def test_unfilled_triangle(self, tri_unfilled):
        assert (cocycle_dim(tri_unfilled, 1), coboundary_dim(tri_unfilled, 1)) == (3, 2)
        assert cohomology_dim(tri_unfilled, 1) == 1

    def test_plugged_triangle_ring(self, plugged):
        # three triangles around the rim kill every 1-cocycle class
        assert (cocycle_dim(plugged, 1), coboundary_dim(plugged, 1)) == (3, 3)
        assert cohomology_dim(plugged, 1) == 0

    def test_hollow_tetrahedron(self, ex4):
        X = build_overlap_complex(ex4, max_dim=3)
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
            coboundary_dim(tri_filled, 0)

    def test_beyond_dimension_everything_vanishes(self, tri_unfilled):
        assert cohomology_dim(tri_unfilled, 2) == 0
        assert cohomology_dim(tri_unfilled, 7) == 0


class TestCochains:
    def test_keys_must_match_degree(self, tri_filled):
        with pytest.raises(ValueError):
            Cochain(tri_filled, 1, {(0, 1): Fraction(1)})

    def test_vector_follows_canonical_order(self, tri_unfilled):
        c = _edge_cochain(tri_unfilled, [5, 7, 11])
        assert c.vector() == (Fraction(5), Fraction(7), Fraction(11))

    def test_from_vector_round_trip(self, tri_unfilled):
        c = _edge_cochain(tri_unfilled, [1, 2, 3])
        assert cochain_from_vector(tri_unfilled, 1, c.vector()) == c

    def test_coboundary_of_vertex_cochain(self, tri_filled):
        f = cochain_from_vector(tri_filled, 0, (Fraction(0), Fraction(1), Fraction(3)))
        df = coboundary(f)
        assert df.values[(0, 1)] == Fraction(1)
        assert df.values[(0, 2)] == Fraction(3)
        assert df.values[(1, 2)] == Fraction(2)


class TestCocycles:
    def test_cocycle_on_filled_triangle(self, tri_filled):
        assert is_cocycle(_edge_cochain(tri_filled, [1, 2, 1]))
        assert not is_cocycle(_edge_cochain(tri_filled, [1, 0, 0]))

    def test_everything_is_a_cocycle_without_triangles(self, tri_unfilled):
        assert is_cocycle(_edge_cochain(tri_unfilled, [1, 0, 0]))

    def test_witness_reconstructs_cocycle(self, tri_filled):
        c = _edge_cochain(tri_filled, [1, 2, 1])
        w = coboundary_witness(c)
        assert w is not None
        assert coboundary(w) == c

    def test_no_witness_across_a_hole(self, tri_unfilled):
        assert coboundary_witness(_edge_cochain(tri_unfilled, [1, 0, 0])) is None
        # the hole in one component, beside another component
        X = from_facets("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
        assert coboundary_witness(_edge_cochain(X, [0, 0, 1, 7])) is None

    def test_witness_needs_positive_degree(self, tri_filled):
        f = cochain_from_vector(tri_filled, 0, (Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            coboundary_witness(f)

    def test_witness_is_for_1_cochains_only(self, tri_filled):
        # a 2-coboundary: delta of the 1-cochain that is 1 on edge (0, 1)
        c = coboundary(_edge_cochain(tri_filled, [1, 0, 0]))
        with pytest.raises(ValueError, match="1-cochain"):
            coboundary_witness(c)

    def test_witness_on_a_disconnected_complex(self):
        # components {a, c, e}, {b, d}, and the isolated vertices f and g
        X = from_facets("abcdefg", [("a", "c", "e"), ("b", "d")])
        assert connected_components(X) == [(0, 2, 4), (1, 3), (5,), (6,)]
        f = cochain_from_vector(X, 0, [Fraction(v) for v in (3, -1, 1, 4, -5, 9, 2)])
        c = coboundary(f)
        w = coboundary_witness(c)
        assert w is not None
        assert coboundary(w) == c
        # each component shifted to read 0 at its largest vertex
        assert w.vector() == (8, -5, 6, 0, 0, 0, 0)
        assert w == dense.coboundary_witness(c)

    def test_witness_pins_the_largest_vertex_not_the_last_one_walked(self):
        # breadth-first from 0 walks 0, 1, 3, 2: the largest vertex comes third
        X = from_facets("0123", [("0", "1"), ("0", "3"), ("1", "2")])
        assert spanning_forest(X).order == (0, 1, 3, 2)
        c = _edge_cochain(X, [1, 5, 2])  # edges (0, 1), (0, 3), (1, 2)
        w = coboundary_witness(c)
        assert w is not None
        assert w.vector() == (-5, -4, -2, 0)
        assert coboundary(w) == c
        assert w == dense.coboundary_witness(c)


class TestNonCoboundary:
    def test_unfilled_triangle_canonical_pick(self, tri_unfilled):
        # edges (0, 1) and (0, 2) span the tree: the twist sits on the non-tree edge (1, 2)
        c = noncoboundary_cocycle(tri_unfilled)
        assert c is not None
        assert c.vector() == (Fraction(0), Fraction(0), Fraction(1))

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
            values = c.vector()
            assert all(v.denominator == 1 for v in values)
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
                assert c is not None
                assert is_cocycle(c)
                assert coboundary_witness(c) is None

    def test_relabeling_invariance(self):
        # renaming vertices while keeping their order leaves every
        # cohomology computation untouched
        X = from_facets(("1", "2", "3", "4"), [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
        Y = from_facets(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        assert cohomology_dim(X, 1) == cohomology_dim(Y, 1) == 1
        cx, cy = noncoboundary_cocycle(X), noncoboundary_cocycle(Y)
        assert cx is not None and cy is not None
        assert cx.vector() == cy.vector()


def _reference_complexes(seed: int):
    rng = random.Random(seed)
    out = [random_complex(rng) for _ in range(120)] + [random_complex(rng, 9) for _ in range(40)]
    out += [annulus(rng, m) for m in (3, 4, 5, 6, 8) for _ in range(4)]
    return out


class TestAgainstDenseReference:
    """Sparse results equal the dense rref reference of tests/dense_reference.py."""

    def test_dimensions(self):
        for X in _reference_complexes(51):
            for k in range(4):
                assert cocycle_dim(X, k) == len(X.simplices(k)) - dense.rank(coboundary_matrix(X, k))
            for k in range(1, 4):
                assert coboundary_dim(X, k) == dense.rank(coboundary_matrix(X, k - 1))

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
            assert build_overlap_complex(system, max_dim=max(X.dim, 1) + 1) == X
            assert pairwise_compatibility(system).compatible
            certificate = decide_urprior(system).certificate
            assert isinstance(certificate, CycleCertificate)
            assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
            assert feasibility_oracle(system) is None
        assert len(complexes) >= 200 and holed >= 50, (len(complexes), holed)

    def test_coboundary_witness(self):
        # edgeless and disconnected complexes included: random_complex draws both
        rng = random.Random(54)
        for X in _reference_complexes(55):
            below = Cochain(X, 0, {s: Fraction(rng.randint(-3, 3)) for s in X.simplices(0)})
            anything = Cochain(
                X, 1, {s: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for s in X.simplices(1)}
            )
            for c in (coboundary(below), anything):
                assert coboundary_witness(c) == dense.coboundary_witness(c)

    def test_is_cocycle(self):
        rng = random.Random(56)
        for X in _reference_complexes(57):
            for k in (1, 2):
                below = Cochain(X, k - 1, {s: Fraction(rng.randint(-3, 3)) for s in X.simplices(k - 1)})
                anything = Cochain(
                    X, k, {s: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for s in X.simplices(k)}
                )
                for c in (coboundary(below), anything):
                    image = dense.mat_vec(coboundary_matrix(X, k), c.vector())
                    assert is_cocycle(c) == all(v == 0 for v in image)


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
            assert _coboundary_rank(X, 1) == expected
            assert coboundary_dim(X, 2) == expected
            assert cocycle_dim(X, 1) == len(X.simplices(1)) - expected
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
        # through vertex 0 alone fill the cycle space
        for n in (3, 5, 9):
            X = build_overlap_complex(hub_system(random.Random(n), n)[0], max_dim=2)
            assert X.by_dim == _full_skeleton(n).by_dim
            assert _coboundary_rank(X, 1) == dense.rank(coboundary_matrix(X, 1)) == (n - 1) * (n - 2) // 2
            assert cohomology_dim(X, 1) == 0
