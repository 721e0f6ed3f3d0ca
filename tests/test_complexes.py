from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from urprior import cli, complexes
from urprior.cohomology import (
    coboundary_columns,
    coboundary_rank,
    cohomology_dim,
    noncoboundary_cocycle,
)
from urprior.compat import ratio_cochain
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets, spanning_forest
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace, validate

from .dense_reference import coboundary_matrix
from .overlap_reference import connected_components, overlap_mass
from .generators import (
    annulus,
    closure,
    differential_systems,
    facets,
    hub_system,
    random_complex,
    random_system,
    seeded_systems,
    window_chain,
)


class TestConstruction:
    def test_from_facets_fills_downward(self):
        X = from_facets(("a", "b", "c"), [("a", "b", "c")])
        assert X.counts(2) == [3, 3, 1]
        assert X.simplices(1) == ((0, 1), (0, 2), (1, 2))

    def test_isolated_vertices_survive(self):
        X = from_facets(("a", "b", "c"), [("a", "b")])
        assert X.counts(1) == [3, 1]

    def test_from_facets_idempotent_on_facet_list(self):
        X = from_facets(("a", "b", "c", "d"), [("a", "b", "c"), ("c", "d")])
        again = from_facets(X.vertices, [X.label(s).strip("{}").split(",") for s in facets(X)])
        # label round-trip keeps vertex names, so the rebuilt complex matches
        assert again == X

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            from_facets(("a",), [("a", "b")])

    def test_rejects_empty_facet(self):
        with pytest.raises(ValueError):
            from_facets(("a",), [()])

    def test_facets_are_checked_when_there_are_no_vertices(self):
        # the same error, in the same facet order, as with a vertex present
        for vertices in ((), ("z",)):
            with pytest.raises(ValueError, match="facet mentions unknown vertex 'a'"):
                from_facets(vertices, [("a", "b"), ()])
            with pytest.raises(ValueError, match="facets must be nonempty"):
                from_facets(vertices, [(), ("a", "b")])
        assert from_facets((), []).by_dim == ()

    def test_validation_catches_missing_face(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b", "c"), (((0,), (1,), (2,)), ((0, 1),), ((0, 1, 2),)))

    def test_validation_catches_unsorted_level(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), (((1,), (0,)),))

    @pytest.mark.parametrize(
        "vertices, by_dim, message",
        [
            (("a", "a"), (((0,), (1,)),), "vertex labels must be unique"),
            (("a", "b"), (((0,), (1,)), ((0,),)), r"^\(0,\) listed at dimension 1$"),
            (("a",), (((0,), (1,)),), r"^simplex \(1,\) uses an invalid vertex index$"),
            (("a",), ((("0",),),), r"^simplex \('0',\) uses an invalid vertex index$"),
            (("a", "b"), (((0,), (1,)), ((1, 0),)), r"^simplex \(1, 0\) is not strictly increasing"),
            (("a", "b"), (((0,), (1,)), ((0, 0),)), r"^simplex \(0, 0\) is not strictly increasing"),
            (("a", "b"), (((0,),),), "^every vertex must appear as a 0-simplex$"),
            (("a",), (), "^every vertex must appear as a 0-simplex$"),
            (("a",), (((0,),), ()), "^trailing empty dimension; trim before constructing$"),
        ],
        ids=[
            "duplicate-label",
            "wrong-dimension",
            "index-out-of-range",
            "index-not-int",
            "not-increasing",
            "repeated-index",
            "vertex-missing",
            "vertex-missing-no-levels",
            "trailing-empty-level",
        ],
    )
    def test_public_constructor_rejects(self, vertices, by_dim, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(vertices, by_dim)

    def test_from_facets_rejects_a_repeated_vertex_label(self):
        with pytest.raises(ValueError, match="^vertex labels must be unique$"):
            from_facets(("a", "b", "a"), [("a", "b")])

    def test_label_formatting(self, tri_unfilled):
        assert tri_unfilled.label((0, 1)) == "{1,2}"
        assert tri_unfilled.label((2,)) == "{3}"

    def test_simplices_beyond_dim_is_empty(self, tri_unfilled):
        assert tri_unfilled.simplices(5) == ()
        assert tri_unfilled.counts(3) == [3, 3, 0, 0]


class TestFromFacetsIsTheClosure:
    def test_seeded_facet_families(self):
        # repeated labels inside a facet, repeated and nested facets,
        # one-vertex facets, isolated vertices and shuffled vertex order
        rng = random.Random(27)
        for _ in range(400):
            n = rng.randint(1, 9)
            vertices = [f"v{i}" for i in range(n)]
            rng.shuffle(vertices)
            family = []
            for _ in range(rng.randint(0, 2 * n)):
                facet = [rng.choice(vertices) for _ in range(rng.randint(1, min(n, 6)))]
                family.append(facet)
                if rng.random() < 0.2:
                    family.append(list(reversed(facet)))
                if rng.random() < 0.2:
                    family.append(facet[: rng.randint(1, len(facet))])
            X = from_facets(vertices, family)
            assert X.vertices == tuple(vertices)
            assert X.by_dim == closure(vertices, family)

    def test_every_labelled_complex_on_four_vertices(self):
        # every downward-closed family of 2-or-more-vertex subsets of 4
        # vertices, given to from_facets by its maximal sets
        vertices = ("a", "b", "c", "d")
        subsets = [s for size in (2, 3, 4) for s in itertools.combinations(range(4), size)]
        seen = 0
        for mask in range(1 << len(subsets)):
            family = {s for bit, s in enumerate(subsets) if mask >> bit & 1}
            faces = {f for s in family if len(s) > 2 for f in itertools.combinations(s, len(s) - 1)}
            if not faces <= family:
                continue
            seen += 1
            maximal = [s for s in family if not any(set(s) < set(t) for t in family)]
            labels = [[vertices[i] for i in s] for s in maximal]
            assert from_facets(vertices, labels).by_dim == closure(vertices, labels)
        assert seen == 114


class TestBuildersPassThePublicChecks:
    # The builders skip the constructor's checks; each output must still pass them.
    @staticmethod
    def _checked(X):
        fresh = SimplicialComplex(X.vertices, X.by_dim)
        assert fresh == X and hash(fresh) == hash(X)

    def test_overlap_complexes(self):
        systems = seeded_systems()
        systems += [hub_system(random.Random(n), n)[0] for n in (1, 2, 7)]
        systems += [window_chain(random.Random(n), n)[0] for n in (1, 9)]
        for system in systems:
            self._checked(build_overlap_complex(system))

    def test_complexes_from_facets(self):
        rng = random.Random(26)
        built = [random_complex(rng) for _ in range(100)]
        built += [annulus(random.Random(m), m) for m in (3, 5)]
        built += [
            from_facets((), []),
            from_facets(("a",), []),
            from_facets(("a",), [("a",)]),
            from_facets(("a", "b", "c"), []),
            from_facets(("a", "b", "c", "d"), [("d", "a", "c", "b"), ("b", "a")]),
        ]
        for X in built:
            self._checked(X)


class TestOverlapComplex:
    def test_triangle_filled(self, ex1):
        X = build_overlap_complex(ex1)
        assert X.vertices == ("1", "2", "3")
        assert X.counts(2) == [3, 3, 1]

    def test_triangle_unfilled(self, ex2):
        X = build_overlap_complex(ex2)
        assert X.counts(2) == [3, 3, 0]

    def test_hollow_tetrahedron(self, ex4):
        X = build_overlap_complex(ex4)
        assert X.counts(3) == [4, 6, 4, 0]

    def test_a_complex_read_to_a_depth_answers_for_the_whole(self, data_dir):
        # ex1 is a filled triangle: its edges alone hold a cycle, which the
        # triangle fills. The path b-a-c has its middle vertex lowest, so it
        # is listed, not counted. Each complex read only through level d,
        # and the complex of a ratio cochain, which reads its edges only,
        # answer at every degree as the whole complex does.
        half = Fraction(1, 2)
        path = AgentSystem(
            OutcomeSpace(("x", "y", "p", "q")),
            (
                CredenceFunction("a", {"x": half, "y": half}),
                CredenceFunction("b", {"x": half, "p": half}),
                CredenceFunction("c", {"y": half, "q": half}),
            ),
        )
        ex1 = cli.load_system(str(data_dir / "ex1.json"))
        for system, counts in ((ex1, [3, 3, 1]), (path, [3, 2])):
            whole = build_overlap_complex(system)
            listing = SimplicialComplex(whole.vertices, whole.by_dim)
            assert listing.counts() == counts
            read = []
            for d in range(listing.dim + 2):
                X = build_overlap_complex(system)
                X.simplices(d)
                read.append((X, (d, d + 1)))
            read.append((ratio_cochain(system).complex, (1, 2)))
            for X, degrees in read:
                for k in degrees:
                    assert coboundary_rank(X, k) == coboundary_rank(listing, k), k
                    if k:
                        assert cohomology_dim(X, k) == cohomology_dim(listing, k) == 0, k

    def test_membership_matches_bruteforce(self):
        # a group spans a simplex iff every member gives the common
        # overlap positive mass; recheck straight from overlap_mass
        rng = random.Random(21)
        for _ in range(40):
            system = random_system(rng)
            X = build_overlap_complex(system)
            names = system.names
            for k in range(1, 4):
                expected = []
                for group in itertools.combinations(range(len(names)), k + 1):
                    labels = tuple(names[i] for i in group)
                    if all(overlap_mass(system, a, labels) > 0 for a in labels):
                        expected.append(group)
                assert X.simplices(k) == tuple(expected)


class TestCoboundaryMatrix:
    # literal sparse columns: column j maps each (k+1)-simplex index to its sign
    def test_vertex_to_edge_on_triangle(self, tri_filled):
        d0 = coboundary_columns(tri_filled, 0)
        assert d0 == [{0: -1, 1: -1}, {0: 1, 2: -1}, {1: 1, 2: 1}]

    def test_edge_to_triangle_on_filled(self, tri_filled):
        d1 = coboundary_columns(tri_filled, 1)
        assert d1 == [{0: 1}, {0: -1}, {0: 1}]

    def test_edge_to_triangle_on_plugged(self, plugged):
        d1 = coboundary_columns(plugged, 1)
        assert len(plugged.simplices(2)) == 3 and len(d1) == 6
        assert d1 == [
            {0: 1},
            {1: 1},
            {0: -1, 1: -1},
            {2: 1},
            {0: 1, 2: -1},
            {1: 1, 2: 1},
        ]

    def test_hollow_tetra_shapes(self, ex4):
        X = build_overlap_complex(ex4)
        assert len(coboundary_columns(X, 0)) == 4
        d1 = coboundary_columns(X, 1)
        assert (len(X.simplices(2)), len(d1)) == (4, 6)
        d2 = coboundary_columns(X, 2)
        assert not X.simplices(3) and d2 == [{}, {}, {}, {}]

    def test_composition_vanishes(self):
        rng = random.Random(22)
        for _ in range(30):
            X = random_complex(rng)
            for k in (0, 1, 2):
                upper = coboundary_columns(X, k + 1)
                for column in coboundary_columns(X, k):
                    image: dict[int, int] = {}
                    for row, a in column.items():
                        for t, b in upper[row].items():
                            image[t] = image.get(t, 0) + a * b
                    assert not any(image.values())

    def test_sparse_columns_match_the_matrix(self):
        rng = random.Random(23)
        for _ in range(30):
            X = random_complex(rng)
            for k in (0, 1, 2):
                m = coboundary_matrix(X, k)
                dense = [{i: int(row[j]) for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]
                assert coboundary_columns(X, k) == dense

    def test_rejects_negative_degree(self, tri_filled):
        with pytest.raises(ValueError):
            coboundary_columns(tri_filled, -1)


class TestComponents:
    def test_connected_complex(self, tri_unfilled):
        assert connected_components(tri_unfilled) == [(0, 1, 2)]

    def test_two_pieces(self):
        X = from_facets(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        assert connected_components(X) == [(0, 1), (2, 3)]

    def test_isolated_vertex_is_own_component(self):
        X = from_facets(("a", "b", "c"), [("a", "b")])
        assert connected_components(X) == [(0, 1), (2,)]
        X = from_facets("abcdefg", [("a", "c", "e"), ("b", "d")])
        assert connected_components(X) == [(0, 2, 4), (1, 3), (5,), (6,)]


class TestSpanningForest:
    def test_tree_and_non_tree_edges(self, tri_unfilled):
        forest = spanning_forest(tri_unfilled)
        assert forest.order == (0, 1, 2)
        assert dict(forest.parent) == {1: 0, 2: 0}
        assert forest.non_tree == ((1, 2),)

    def test_breadth_first_from_each_smallest_vertex(self):
        X = from_facets(tuple("abcdef"), [("a", "d"), ("d", "b"), ("a", "b"), ("c", "e"), ("e", "f")])
        forest = spanning_forest(X)
        assert forest.order == (0, 1, 3, 2, 4, 5)
        assert dict(forest.parent) == {1: 0, 3: 0, 4: 2, 5: 4}
        assert forest.non_tree == ((1, 3),)
        # breadth-first from 0 walks 0, 1, 3, 2: the largest vertex comes third
        X = from_facets("0123", [("0", "1"), ("0", "3"), ("1", "2")])
        assert spanning_forest(X).order == (0, 1, 3, 2)

    def test_every_edge_is_tree_or_non_tree(self):
        rng = random.Random(24)
        for _ in range(40):
            X = random_complex(rng)
            forest = spanning_forest(X)
            tree = {tuple(sorted(e)) for e in forest.parent.items()}
            assert sorted(tree | set(forest.non_tree)) == list(X.simplices(1))
            assert not tree & set(forest.non_tree)
            assert sorted(forest.order) == list(range(len(X.vertices)))
            assert len(X.vertices) - len(forest.parent) == len(connected_components(X))


class TestForestCache:
    def test_one_forest_per_complex(self):
        rng = random.Random(25)
        for _ in range(40):
            X = random_complex(rng)
            forest = spanning_forest(X)
            assert spanning_forest(X) is forest
            fresh = SimplicialComplex(X.vertices, X.by_dim)
            assert fresh == X and hash(fresh) == hash(X)
            assert spanning_forest(fresh) is not forest
            assert spanning_forest(fresh) == forest

    def test_every_stage_of_a_report_reads_the_same_forest(self, monkeypatch, data_dir, capsys):
        # ex4 (a hollow tetrahedron) and tri_unfilled do not collapse and
        # are listed: one forest each. ex1, tri_filled and gap (a no with
        # no edge) collapse, so their reports are counted and build no
        # forest.
        built = []
        build = complexes._build_forest
        monkeypatch.setattr(complexes, "_build_forest", lambda X: built.append(X) or build(X))
        forests = {"ex1.json": 0, "ex4.json": 1, "gap.json": 0, "tri_filled.json": 0, "tri_unfilled.json": 1}
        for name, expected in forests.items():
            command = "cohomology" if name.startswith("tri") else "check"
            built.clear()
            cli.main([command, str(data_dir / name)])
            assert len(built) == expected, name
        capsys.readouterr()
        # components, rank delta_0, the cycle-space rank and the canonical cocycle
        X = from_facets(tuple("abcde"), [("a", "b", "c"), ("c", "d"), ("d", "e"), ("c", "e")])
        built.clear()
        assert connected_components(X) == [(0, 1, 2, 3, 4)]
        assert cohomology_dim(X, 1) == 1
        assert noncoboundary_cocycle(X) is not None
        assert len(built) == 1


def _reads_as(make):
    """Whether a complex reads as its listing at every depth: "counted" when it collapses, else "listed".

    ``make()`` builds the complex afresh, so depth d is read on a complex
    of which no level above d was listed. Its counts and ranks from
    d - 1 to d + 1, and so its H^k at d and d + 1, equal those of its
    explicit listing ``SimplicialComplex(X.vertices, X.by_dim)``, which
    is never counted.
    """
    X = make()
    listing = SimplicialComplex(X.vertices, X.by_dim)
    assert X == listing
    ranks = [coboundary_rank(listing, k) for k in range(listing.dim + 3)]
    for d in range(listing.dim + 2):
        Y = make()
        Y.simplices(d)
        # H^k at d and d + 1 is made of these counts and ranks
        for k in range(max(d - 1, 0), d + 2):
            assert Y.count(k) == listing.count(k), (d, k)
            assert coboundary_rank(Y, k) == ranks[k], (d, k)
    C = make()
    if C._links is None:
        return "listed"
    assert (C.dim, C.counts()) == (listing.dim, listing.counts())
    assert len(X.vertices) - coboundary_rank(C, 0) == len(connected_components(listing))
    for k in (1, 2):
        assert cohomology_dim(C, k) == 0
    return "counted"


def _maker(system):
    """A maker of the complex the system's weighting groups generate, or None when it has none."""
    groups = complexes._weighting_groups(system)
    return None if groups is None else lambda: complexes._generated(system.names, groups.values())


class TestCollapsible:
    """A collapsing complex is counted with the counts, components, ranks and H^k of its listing."""

    def test_overlap_complexes(self, data_dir):
        # read at every depth; hubs no larger than 9 agents keep the
        # listings small
        rng = random.Random(29)
        systems = differential_systems(data_dir, hubs=(5, 9))
        systems += [hub_system(rng, n, held_at_zero=True)[0] for n in (3, 9)]
        seen = {"counted": 0, "listed": 0, "split": 0}
        for system in systems:
            make = _maker(system)
            if make is None:
                seen["split"] += 1
                continue
            assert make() == build_overlap_complex(system)
            seen[_reads_as(make)] += 1
        assert seen["counted"] > 2500 and seen["listed"] > 300, seen

    def test_golden_files(self, data_dir):
        # the data files of both golden files, and each system the
        # counterexample golden file holds
        golden = Path(__file__).parent / "golden"
        names = set(json.loads((golden / "cohomology.json").read_text()))
        seen = {"counted": 0, "listed": 0}
        for name in sorted(names):
            raw = json.loads((data_dir / name).read_text())
            if "facets" in raw:
                seen[_reads_as(lambda: from_facets(raw["vertices"], raw["facets"]))] += 1
                continue
            make = _maker(cli.load_system(str(data_dir / name)))
            if make is not None:
                seen[_reads_as(make)] += 1
        for name, run in json.loads((golden / "counterexample.json").read_text()).items():
            if run["exit"] == 0:
                seen[_reads_as(_maker(validate(json.loads(run["stdout"]))))] += 1
        assert seen == {"counted": 2, "listed": 12}, seen
