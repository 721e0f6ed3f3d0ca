"""Named triangulated spaces: rational H^1 and H^2, Euler characteristic, counterexamples.

The facet lists live here, not in ``tests/data``, since the golden files
and CI enumerate ``tests/data/*.json``. RP^2 pins the coefficient ring:
H_1(RP^2; Z) = Z/2, so a mod-2 or integral shortcut would see a hole, but
H^1(RP^2; Q) = 0 and no counterexample exists. The overlap ratios live in
the positive rationals, free abelian on the primes, so rational H^1 is
the invariant that decides.
"""

from __future__ import annotations

import random

import pytest

from urprior.cohomology import cohomology_dim, noncoboundary_cocycle
from urprior.compat import (
    CycleCertificate,
    decide_urprior,
    pairwise_compatibility,
    verify_urprior,
)
from urprior.complexes import build_overlap_complex, from_facets
from urprior.oracle import feasibility_oracle
from urprior.witness import NoHoleError, generate_counterexample

from . import dense_reference as dense
from .generators import holonomy_from_pmfs, pairwise_system, random_cocycle, random_weights


def _cyclic(n: int, *offsets: tuple[int, ...]) -> list[list[str]]:
    """The facets {i + a for a in offsets} mod n, for every i and every offset tuple."""
    return [[str((i + a) % n) for a in shape] for shape in offsets for i in range(n)]


def _rp2():
    # the 6-vertex triangulation, the hemi-icosahedron
    triples = ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]
    return from_facets([str(i) for i in range(1, 7)], [list(t) for t in triples])


def _torus():
    # the 7-vertex (Moebius-Csaszar) torus
    return from_facets([str(i) for i in range(7)], _cyclic(7, (0, 1, 3), (0, 2, 3)))


def _moebius_band():
    return from_facets([str(i) for i in range(5)], _cyclic(5, (0, 1, 2)))


def _klein_bottle():
    # a 4 x 4 grid of squares, each cut along its diagonal: the columns
    # close up as on a torus, the rows close up with the columns reversed
    def v(i: int, j: int) -> str:
        return f"{i % 4}{j % 4}" if i < 4 else f"0{-j % 4}"

    facets = []
    for i in range(4):
        for j in range(4):
            facets.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            facets.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return from_facets([f"{i}{j}" for i in range(4) for j in range(4)], facets)


def _dunce_hat():
    # a triangle whose three sides are glued as a, a, a^-1. Each side is
    # cut in three, so the boundary reads v0 p1 p2 v0 p1 p2 v0 p2 p1 going
    # round; a ring q0..q8 inside it and a centre c fill the disc
    boundary = ["v0", "p1", "p2", "v0", "p1", "p2", "v0", "p2", "p1"]
    ring = [f"q{k}" for k in range(9)]
    facets = []
    for k in range(9):
        b, b_next, q, q_next = boundary[k], boundary[(k + 1) % 9], ring[k], ring[(k + 1) % 9]
        facets += [[b, b_next, q], [b_next, q, q_next], [q, q_next, "c"]]
    return from_facets(["v0", "p1", "p2", *ring, "c"], facets)


# name: (complex, simplex counts, chi, H^1, H^2)
SPACES = {
    "rp2": (_rp2, [6, 15, 10], 1, 0, 0),
    "torus": (_torus, [7, 21, 14], 0, 2, 1),
    "moebius_band": (_moebius_band, [5, 10, 5], 0, 1, 0),
    "klein_bottle": (_klein_bottle, [16, 48, 32], 0, 1, 0),
    "dunce_hat": (_dunce_hat, [13, 39, 27], 1, 0, 0),
}


@pytest.mark.parametrize("name", SPACES)
def test_counts_euler_characteristic_and_cohomology(name):
    build, counts, chi, h1, h2 = SPACES[name]
    X = build()
    assert X.counts() == counts
    assert sum((-1) ** k * c for k, c in enumerate(counts)) == chi
    assert (cohomology_dim(X, 1), cohomology_dim(X, 2)) == (h1, h2)
    for k in (1, 2):
        assert cohomology_dim(X, k) == dense.cohomology_dim(X, k)


@pytest.mark.parametrize("name", [name for name, space in SPACES.items() if space[3] == 0])
def test_no_counterexample_without_a_rational_hole(name):
    with pytest.raises(NoHoleError):
        generate_counterexample(SPACES[name][0]())


@pytest.mark.parametrize("name", [name for name, space in SPACES.items() if space[3] > 0])
def test_counterexample_round_trips(name):
    X = SPACES[name][0]()
    system = generate_counterexample(X)
    assert build_overlap_complex(system) == X
    assert pairwise_compatibility(system).compatible
    certificate = decide_urprior(system).certificate
    assert isinstance(certificate, CycleCertificate)
    assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
    assert feasibility_oracle(system) is None


def test_pairwise_system_with_the_canonical_cocycle_is_the_counterexample():
    for name, space in SPACES.items():
        X = space[0]()
        twist = noncoboundary_cocycle(X)
        if twist is not None:
            unit = {s: 1 for level in X.by_dim for s in level}
            assert pairwise_system(X, twist, unit) == generate_counterexample(X), name


def test_every_integer_cocycle_on_rp2_gives_a_prior():
    # H^1(RP^2; Q) = 0: every integer cocycle is a rational coboundary, so
    # each system it twists is realised by a common prior
    X = _rp2()
    rng = random.Random(17)
    twisted = 0
    for _ in range(40):
        cocycle = random_cocycle(X, rng)
        twisted += any(cocycle.values())
        system = pairwise_system(X, cocycle, random_weights(X, rng))
        assert build_overlap_complex(system) == X
        assert pairwise_compatibility(system).compatible
        result = decide_urprior(system)
        assert result.verdict == "exists", cocycle
        assert verify_urprior(system, result.measure).ok
        assert feasibility_oracle(system) == result.measure  # X is connected: one prior
    assert twisted >= 35


def test_a_non_coboundary_on_the_torus_leaves_no_prior():
    X = _torus()
    edges = X.simplices(1)
    rng = random.Random(29)
    holed = 0
    for _ in range(40):
        cocycle = random_cocycle(X, rng)
        system = pairwise_system(X, cocycle, random_weights(X, rng))
        assert build_overlap_complex(system) == X
        assert pairwise_compatibility(system).compatible
        result = decide_urprior(system)
        if dense.coboundary_witness(X, 1, [cocycle[e] for e in edges]) is not None:
            assert result.verdict == "exists", cocycle
            assert feasibility_oracle(system) == result.measure
            continue
        holed += 1
        assert result.verdict == "none", cocycle
        certificate = result.certificate
        assert isinstance(certificate, CycleCertificate)
        assert holonomy_from_pmfs(system, certificate.cycle) == certificate.holonomy != 1
        assert feasibility_oracle(system) is None
    assert holed >= 30
