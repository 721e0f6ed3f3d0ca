"""The indexed overlap table against the all-pairs reference scans."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from urprior.compat import pairwise_compatibility, ratio_cochain
from urprior.complexes import build_overlap_complex, from_facets
from urprior.credence import validate
from urprior.oracle import feasibility_oracle

from . import overlap_reference as reference
from .generators import EDGE_CASES, seeded_systems

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
            assert Fraction(sum_i, agents[i].counts[0]) == agents[i].mass(shared)
            assert Fraction(sum_j, agents[j].counts[0]) == agents[j].mass(shared)


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


def test_ratio_cochains_equal_the_reference():
    for system in SYSTEMS:
        X = build_overlap_complex(system, max_dim=1)
        assert ratio_cochain(system, X).ratios == reference.ratio_cochain(system, X).ratios


def test_ratio_cochain_rejects_an_edge_outside_the_overlap_complex():
    cases = [
        ("disjoint agents", [["1", "2"]]),  # the edge shares no outcome
        ("shared zero on both sides", [["1", "2"]]),  # nobody weights the overlap
        ("one-sided overlap", [["1", "2"]]),  # only agent 2 weights it
    ]
    for name, facets in cases:
        system = EDGE_CASES[name]
        X = from_facets(system.names, facets)
        with pytest.raises(ValueError) as ours:
            ratio_cochain(system, X)
        with pytest.raises(ValueError) as theirs:
            reference.ratio_cochain(system, X)
        assert str(ours.value) == str(theirs.value)


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
    assert Fraction(2, x.counts[0]) == x.mass(("a", "c")) == 1
    assert Fraction(1, y.counts[0]) == y.mass(("a", "c")) == 1
