"""The indexed overlap table against the all-pairs reference scans."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from urprior.compat import pairwise_compatibility, ratio_cochain
from urprior.complexes import build_overlap_complex, from_facets
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace, validate
from urprior.oracle import feasibility_oracle

from . import overlap_reference as reference
from .generators import conditioned_system, random_system, window_chain


def _system(outcomes: str, *pmfs: dict[str, Fraction | int]) -> AgentSystem:
    agents = tuple(CredenceFunction(str(k), pmf) for k, pmf in enumerate(pmfs, start=1))
    return AgentSystem(OutcomeSpace(tuple(outcomes)), agents)


HALF = Fraction(1, 2)

EDGE_CASES = {
    "single agent": _system("ab", {"a": HALF, "b": HALF}),
    "disjoint agents": _system("abcd", {"a": HALF, "b": HALF}, {"c": 1}, {"d": 1}),
    "zero-mass awareness": _system(
        "abc", {"a": 1, "b": 0}, {"b": 0, "c": 1}, {"a": HALF, "b": 0, "c": HALF}
    ),
    "one-sided overlap": _system("abc", {"a": 0, "b": 1}, {"a": HALF, "c": HALF}, {"a": 1}),
    "shared zero on both sides": _system("abc", {"a": 1, "b": 0}, {"b": 0, "c": 1}),
    "violation": _system("abc", {"a": HALF, "b": HALF}, {"a": Fraction(1, 3), "b": Fraction(2, 3)}),
    "same agent twice": _system("ab", {"a": HALF, "b": HALF}, {"a": HALF, "b": HALF}),
}


def _systems() -> list[AgentSystem]:
    """Seeded random systems of every kind, the edge cases above among them."""
    rng = random.Random(2024)
    out = list(EDGE_CASES.values())
    for k in range(120):
        out.append(random_system(rng, max_agents=1 + k % 9, max_outcomes=2 + k % 9))
    for k in range(100):
        sizes = {"max_agents": 2 + k % 9, "max_outcomes": 3 + k % 8}
        out.append(conditioned_system(rng, **sizes, common_outcome=k % 3 == 0))
    for agents in (1, 2, 5, 12):
        out.append(window_chain(rng, agents, window=1 + agents % 4)[0])
    return out


SYSTEMS = _systems()


def test_enough_systems():
    assert len(SYSTEMS) >= 200


def test_table_lists_every_sharing_pair_with_its_masses():
    for system in SYSTEMS:
        agents = system.agents
        expected = {}
        for i, j in combinations(range(len(agents)), 2):
            shared = agents[i].support & agents[j].support
            if shared:
                expected[(i, j)] = (
                    tuple(sorted(shared)),
                    agents[i].mass(shared),
                    agents[j].mass(shared),
                )
        assert system.overlaps == expected
        assert list(system.overlaps) == sorted(expected)


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
    assert system.overlaps == {(0, 1): (("a", "c"), Fraction(1), Fraction(1))}
