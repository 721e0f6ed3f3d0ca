"""The indexed overlap table against the all-pairs reference scans."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from urprior.compat import pairwise_compatibility, ratio_cochain
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import AgentSystem, validate
from urprior.oracle import feasibility_oracle

from . import overlap_reference as reference
from .fraction_reference import mass
from .generators import EDGE_CASES, hub_system, seeded_systems, split_hub_system

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


@pytest.mark.parametrize("max_dim", [None, 1, 2, 3])
def test_without_a_zero_mass_the_complex_is_listed_without_the_table(max_dim):
    listed = 0
    for seeded in seeded_systems():
        if any(agent.positive != agent.support for agent in seeded.agents):
            continue
        system = AgentSystem(seeded.space, seeded.agents)  # a copy whose table nothing has built
        listed += 1
        X = build_overlap_complex(system, max_dim=max_dim)
        assert "overlaps" not in vars(system)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
        assert system.overlaps is not None  # once the table is built, its edges are read
        assert build_overlap_complex(system, max_dim=max_dim) == X
    assert listed > 100


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
    # the sample reaches split systems, and on them triangles that no
    # weighting group holds (48 and 10 of 231 when written)
    assert split >= 40 and outside >= 8


@pytest.mark.parametrize("max_dim", [None, 2, 3])
@pytest.mark.parametrize("agents", range(1, 13))
def test_split_hubs_equal_the_reference(agents, max_dim):
    system = split_hub_system(agents)
    assert len(_split_edges(system)) == agents
    X = build_overlap_complex(system, max_dim=max_dim)
    assert X == reference.build_overlap_complex(system, max_dim=max_dim)
    # the full simplex on the hub's weighters, and the last agent's edges
    top = agents - 1 if max_dim is None else min(agents - 1, max_dim)
    assert X.dim == max(top, 1)


STAR = """
import sys
from fractions import Fraction
from urprior.complexes import build_overlap_complex
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace

others, clique = map(int, sys.argv[1:])
private = [f"q{i}" for i in range(others)]
centre = CredenceFunction("c", {x: Fraction(1, others + 1) for x in ["o", *private]})
leaves = [CredenceFunction(f"b{i}", {"o": Fraction(0), x: Fraction(1)}) for i, x in enumerate(private)]
group = [CredenceFunction(f"k{i}", {"r": Fraction(1)}) for i in range(clique)]
system = AgentSystem(OutcomeSpace(("o", *private, "r")), (centre, *leaves, *group))
print(build_overlap_complex(system).counts())
"""


@pytest.mark.parametrize(
    "others, clique, counts",
    [(39, 0, [40, 39]), (60, 8, [69, 88, 56, 70, 56, 28, 8, 1])],
)
def test_a_split_star_stops_at_its_edges(others, clique, counts):
    # the centre weights o, which its leaves hold at mass 0, so each of
    # its edges is sign-split and every group of leaves holds an outcome
    # the centre weights; none of the groups of two leaves with the centre
    # is a simplex. Alone, the star's listing must stop at its edges; next
    # to a clique on r, whose levels go on through dimension 7, it must
    # try no larger group of leaves. Run apart, so that a listing which
    # walks on fails at the timeout instead of stalling the suite.
    env = dict(os.environ)
    paths = [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    process = subprocess.run(
        [sys.executable, "-c", STAR, str(others), str(clique)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout == f"{counts}\n"


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
