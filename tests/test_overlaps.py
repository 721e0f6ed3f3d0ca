"""The indexed overlap table against the all-pairs reference scans."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from urprior.compat import pairwise_compatibility, ratio_cochain
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import validate
from urprior.oracle import feasibility_oracle

from . import overlap_reference as reference
from .fraction_reference import mass
from .generators import EDGE_CASES, hub_system, seeded_systems

SYSTEMS = seeded_systems()


def test_enough_systems():
    assert len(SYSTEMS) >= 200


def test_table_lists_every_sharing_pair_with_its_masses():
    # each mass is the agent's integer counts summed over the overlap,
    # over the agent's own denominator
    for system in SYSTEMS:
        agents = system.agents
        expected = {}
        for i, j in combinations(range(len(agents)), 2):
            shared = agents[i].support & agents[j].support
            if shared:
                expected[(i, j)] = (
                    tuple(sorted(shared)),
                    sum(agents[i].counts[1][x] for x in shared),
                    sum(agents[j].counts[1][x] for x in shared),
                )
        assert system.overlaps == expected
        assert list(system.overlaps) == sorted(expected)
        for (i, j), (shared, sum_i, sum_j) in system.overlaps.items():
            assert type(sum_i) is int and type(sum_j) is int
            assert Fraction(sum_i, agents[i].counts[0]) == mass(agents[i], shared)
            assert Fraction(sum_j, agents[j].counts[0]) == mass(agents[j], shared)


def test_table_and_supports_are_built_once():
    system = EDGE_CASES["zero-mass awareness"]
    assert system.overlaps is system.overlaps
    assert all(agent.support is agent.support for agent in system.agents)


def test_pairwise_reports_equal_the_reference():
    fired = {"violations": 0, "asymmetries": 0}
    for system in SYSTEMS:
        report = pairwise_compatibility(system)
        assert report == reference.pairwise_compatibility(system)
        fired["violations"] += bool(report.violations)
        fired["asymmetries"] += bool(report.asymmetries)
    # the sample reaches both kinds of pairwise certificate
    assert fired["violations"] > 20 and fired["asymmetries"] > 20


@pytest.mark.parametrize("max_dim", [None, 0, 1, 2, 3])
def test_overlap_complexes_equal_the_reference(max_dim):
    top = 0
    for system in SYSTEMS:
        X = build_overlap_complex(system, max_dim=max_dim)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
        top = max(top, X.dim)
    # the sample reaches the depth asked for, and at least dimension 3
    assert top >= (3 if max_dim is None else max_dim)


def _split_edges(system):
    """Edges (i, j), from the reference complex, whose agents disagree on which shared outcomes carry mass."""
    agents = system.agents
    return [
        (i, j)
        for i, j in reference.build_overlap_complex(system, max_dim=1).simplices(1)
        if agents[i].positive & agents[j].support != agents[j].positive & agents[i].support
    ]


def _generated_complex(system, max_dim):
    """The complex generated by the sets A_x of agents that weight outcome x, cut at max_dim."""
    groups = [
        [agent.name for agent in system.agents if agent.pmf.get(x, 0) > 0]
        for x in system.space.outcomes
    ]
    X = from_facets(system.names, [group for group in groups if group])
    top = X.dim if max_dim is None else max_dim
    return SimplicialComplex(X.vertices, X.by_dim[: top + 1])


@pytest.mark.parametrize("max_dim", [None, 0, 1, 2, 3])
def test_without_a_split_edge_the_complex_is_generated_by_the_weighting_groups(max_dim):
    unsplit = 0
    for system in SYSTEMS:
        if _split_edges(system):
            continue
        unsplit += 1
        X = build_overlap_complex(system, max_dim=max_dim)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
        assert X == _generated_complex(system, max_dim)
    assert unsplit > 150


def test_systems_with_a_split_edge_equal_the_reference():
    split = outside = 0
    for system in SYSTEMS:
        if not _split_edges(system):
            continue
        split += 1
        X = build_overlap_complex(system)
        assert X == reference.build_overlap_complex(system)
        assert build_overlap_complex(system, max_dim=2) == reference.build_overlap_complex(
            system, max_dim=2
        )
        generated = set(_generated_complex(system, 2).simplices(2))
        outside += any(t not in generated for t in X.simplices(2))
    # the sample reaches the level-by-level path, and on it triangles
    # that no weighting group holds (48 and 10 of 231 when written)
    assert split >= 40 and outside >= 8


def test_every_split_edge_is_a_pairwise_violation():
    for system in SYSTEMS:
        violated = {v.pair for v in pairwise_compatibility(system).violations}
        names = system.names
        assert {(names[i], names[j]) for i, j in _split_edges(system)} <= violated


def test_hub_complex_is_the_full_2_skeleton():
    system = hub_system(random.Random(5), 60)[0]
    X = build_overlap_complex(system, max_dim=2)
    assert X.counts() == [60, 1770, 34220]
    assert X == reference.build_overlap_complex(system, max_dim=2)


def test_ratio_cochains_equal_the_reference():
    for system in SYSTEMS:
        X = reference.build_overlap_complex(system, max_dim=1)
        ours = ratio_cochain(system)
        assert ours.complex == X
        assert ours.ratios == reference.ratio_cochain(system, X).ratios


def test_oracle_equals_the_all_pairs_oracle():
    found = 0
    for system in SYSTEMS:
        measure = feasibility_oracle(system)
        assert measure == reference.feasibility_oracle(system)
        if measure is not None:
            assert list(measure) == list(reference.feasibility_oracle(system))
            found += 1
    assert found > 100


def test_shared_outcomes_are_sorted_by_label():
    system = validate(
        {
            "outcomes": ["a", "b", "c"],
            "agents": [
                {"name": "x", "credence": {"c": "1/2", "a": "1/2"}},
                {"name": "y", "credence": {"c": "1", "b": "0", "a": "0"}},
            ],
        }
    )
    # x counts 1/2 as 1 of 2 and y counts 1 as 1 of 1, so both overlaps weigh 1
    assert system.overlaps == {(0, 1): (("a", "c"), 2, 1)}
    x, y = system.agents
    assert Fraction(2, x.counts[0]) == mass(x, ("a", "c")) == 1
    assert Fraction(1, y.counts[0]) == mass(y, ("a", "c")) == 1
