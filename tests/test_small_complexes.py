"""The paper's equivalence, checked on small complexes one by one.

Pairwise compatibility gives a common prior for every system with
overlap complex X exactly when H^1(X; Q) = 0. On every labelled complex
on 4 vertices (114) and on a seeded sample of those on 5 (6,894):

- H^1 from the sparse kernel equals H^1 from the dense reference and
  H^1 of the Dowker dual. The dual is the complex on outcomes generated
  by each agent's positive outcomes, for a system with one outcome per
  facet of X; it has the homology of X (Dowker, "Homology groups of
  relations", Ann. of Math. 1952). It is built by the brute-force
  closure and ranked densely, so it shares no code with the library's
  complex builders.
- A seeded integer cocycle c twists ``pairwise_system`` into a system
  that ``decide_urprior`` realises exactly when the dense reference
  finds c a coboundary. The oracle agrees, and each cycle certificate's
  holonomy recomputes from the pmfs.
- ``generate_counterexample`` refuses X exactly when H^1 = 0. Otherwise
  its system has overlap complex X and is pairwise compatible, yet
  ``decide_urprior`` and the oracle both find no prior.
- A family of faces that generates X (its facets, and its facets with
  random extra faces) gives, through ``complexes._generated``, a complex
  equal to X that answers at every depth as X's explicit listing does,
  and, when it collapses, is counted with X's counts, components, ranks
  and H^1 and H^2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from urprior import complexes
from urprior.cohomology import coboundary_rank, cohomology_dim
from urprior.compat import (
    CycleCertificate,
    decide_urprior,
    pairwise_compatibility,
    verify_urprior,
)
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace
from urprior.oracle import feasibility_oracle
from urprior.witness import NoHoleError, generate_counterexample

from . import dense_reference as dense
from .generators import (
    closure,
    facets,
    holonomy_from_pmfs,
    pairwise_system,
    random_cocycle,
    random_weights,
)
from .overlap_reference import connected_components

LABELS = "abcde"
SAMPLE = 300  # of the 6,894 complexes on 5 vertices


@cache
def labelled_complexes(n: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Every simplicial complex whose vertices are 0..n-1, as its set of faces.

    Level by level: each set of k-faces whose boundaries are all present
    is chosen in turn, and an empty choice ends the complex.
    """
    out = []

    def extend(faces: frozenset[tuple[int, ...]], size: int) -> None:
        candidates = [
            s
            for s in combinations(range(n), size)
            if all(f in faces for f in combinations(s, size - 1))
        ]
        out.append(faces)
        for mask in range(1, 1 << len(candidates)):
            extend(faces | {s for bit, s in enumerate(candidates) if mask >> bit & 1}, size + 1)

    extend(frozenset((i,) for i in range(n)), 2)
    return tuple(out)


@cache
def _complexes() -> list[tuple[str, SimplicialComplex]]:
    """All 114 complexes on 4 vertices and the seeded sample on 5, each built by ``from_facets``."""
    four, five = labelled_complexes(4), labelled_complexes(5)
    chosen = [(4, k, faces) for k, faces in enumerate(four)]
    chosen += [(5, k, five[k]) for k in sorted(random.Random(5).sample(range(len(five)), SAMPLE))]
    out = []
    for n, k, faces in chosen:
        maximal = [s for s in faces if not any(set(s) < set(t) for t in faces)]
        X = from_facets(LABELS[:n], [[LABELS[i] for i in s] for s in maximal])
        assert {s for level in X.by_dim for s in level} == faces
        out.append((f"{n}v-{k}", X))
    return out


def test_every_labelled_complex_is_listed_once():
    listed = [labelled_complexes(n) for n in (1, 2, 3, 4, 5)]
    assert [len(set(faces)) for faces in listed] == [len(faces) for faces in listed]
    assert [len(faces) for faces in listed] == [1, 2, 9, 114, 6894]


def _facet_system(X: SimplicialComplex) -> AgentSystem:
    """One outcome per facet of X; each vertex an agent weighting its facets evenly."""
    maximal = facets(X)
    agents = []
    for i, name in enumerate(X.vertices):
        mine = [X.label(s) for s in maximal if i in s]
        agents.append(CredenceFunction(name, {x: Fraction(1, len(mine)) for x in mine}))
    return AgentSystem(OutcomeSpace(tuple(X.label(s) for s in maximal)), tuple(agents))


def _dowker_dual(system: AgentSystem) -> SimplicialComplex:
    outcomes = system.space.outcomes
    positive = [[x for x, p in agent.pmf.items() if p > 0] for agent in system.agents]
    return SimplicialComplex(outcomes, closure(outcomes, positive))


def test_the_three_h1_agree():
    holed = {4: 0, 5: 0}
    for name, X in _complexes():
        h1 = cohomology_dim(X, 1)
        assert dense.cohomology_dim(X, 1) == h1, name
        system = _facet_system(X)
        assert build_overlap_complex(system) == X, name
        assert dense.cohomology_dim(_dowker_dual(system), 1) == h1, name
        holed[len(X.vertices)] += h1 > 0
    assert holed[4] == 48
    assert holed[5] >= SAMPLE * 3 // 5  # 4,895 of all 6,894


@pytest.mark.parametrize("n", [4, 5])
def test_a_prior_exists_exactly_when_the_cocycle_is_a_coboundary(n):
    rng = random.Random(40 + n)
    found = {"exists": 0, "none": 0}
    for name, X in _complexes():
        if len(X.vertices) != n:
            continue
        edges = X.simplices(1)
        cocycle = random_cocycle(X, rng)
        system = pairwise_system(X, cocycle, random_weights(X, rng))
        assert build_overlap_complex(system) == X, name
        assert pairwise_compatibility(system).compatible, name
        result = decide_urprior(system)
        oracle = feasibility_oracle(system)
        found[result.verdict] += 1
        if dense.coboundary_witness(X, 1, [cocycle[e] for e in edges]) is not None:
            assert result.verdict == "exists", (name, cocycle)
            assert verify_urprior(system, result.measure).ok
            assert oracle is not None and verify_urprior(system, oracle).ok
            if len(connected_components(X)) == 1:  # one prior only
                assert oracle == result.measure, name
            continue
        assert result.verdict == "none", (name, cocycle)
        certificate = result.certificate
        assert isinstance(certificate, CycleCertificate), name
        assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
        assert oracle is None, name
    assert min(found.values()) >= 40, found


def test_a_counterexample_exists_exactly_when_h1_is_nonzero():
    emitted = {4: 0, 5: 0}
    for name, X in _complexes():
        if dense.cohomology_dim(X, 1) == 0:
            with pytest.raises(NoHoleError):
                generate_counterexample(X)
            continue
        system = generate_counterexample(X)
        emitted[len(X.vertices)] += 1
        assert build_overlap_complex(system) == X, name
        assert pairwise_compatibility(system).compatible, name
        result = decide_urprior(system)
        assert result.verdict == "none", name
        certificate = result.certificate
        assert isinstance(certificate, CycleCertificate), name
        assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
        assert feasibility_oracle(system) is None, name
    assert emitted[4] == 48
    assert emitted[5] >= SAMPLE * 3 // 5


def test_a_collapsing_family_is_counted_as_its_listing_reads():
    rng = random.Random(29)
    counted = {4: 0, 5: 0}
    listed = 0
    for name, X in _complexes():
        listing = SimplicialComplex(X.vertices, X.by_dim)
        maximal = facets(X)
        faces = [s for level in X.by_dim for s in level]
        for family in (maximal, maximal + rng.sample(faces, min(3, len(faces)))):
            rng.shuffle(family)
            groups = [list(s) for s in family]
            C = complexes._generated(X.vertices, groups)
            assert C == listing, name
            # read through depth d only, at d and d + 1 it answers as its listing
            for d in range(listing.dim + 2):
                Y = complexes._generated(X.vertices, groups)
                Y.simplices(d)
                for k in (d, d + 1):
                    assert Y.count(k) == listing.count(k), (name, d, k)
                    assert coboundary_rank(Y, k) == coboundary_rank(listing, k), (name, d, k)
                    if k:
                        assert cohomology_dim(Y, k) == cohomology_dim(listing, k), (name, d, k)
            if C._links is None:
                listed += 1
                continue
            counted[len(X.vertices)] += 1
            assert (C.dim, C.counts()) == (listing.dim, listing.counts()), name
            assert len(X.vertices) - coboundary_rank(C, 0) == len(connected_components(listing)), name
            for k in (1, 2):
                assert cohomology_dim(C, k) == dense.cohomology_dim(listing, k) == 0
    # of the 228 families on 4 vertices and the 600 of the sample on 5; extra
    # faces change no verdict, since a face's tail lies in its facet's
    assert (counted, listed) == ({4: 78, 5: 24}, 726)
