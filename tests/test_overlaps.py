"""The pairwise scan, overlap complex and ratio cochain against the all-pairs reference scans."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import count, islice, takewhile
from pathlib import Path

import pytest

from urprior import complexes
from urprior.compat import pairwise_compatibility, ratio_cochain
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import validate
from urprior.oracle import feasibility_oracle
from urprior.witness import NoHoleError, generate_counterexample

from . import overlap_reference as reference
from .generators import (
    conditioned_system,
    differential_systems,
    disjoint_union,
    hub_system,
    no_hub_system,
    random_system,
    seeded_systems,
    split_hub_system,
)

# Each test draws its own systems from seeded_systems(), so that no cache an
# earlier test filled decides which listing a complex test runs.


def test_enough_systems():
    assert len(seeded_systems()) >= 200


def _zero_mass_systems(seed, size):
    """``size`` seeded ``random_system`` draws in which some agent holds an outcome at 0."""
    rng = random.Random(seed)
    drawn = (random_system(rng, max_agents=1 + k % 9, max_outcomes=2 + k % 9) for k in count())
    return list(islice((s for s in drawn if any(a.positive != a.support for a in s.agents)), size))


def test_pairwise_reports_equal_the_reference(data_dir, c4):
    # the report is read off the edges of the overlap complex and the
    # outcomes held at 0; the reference visits every pair of agents
    rng = random.Random(34)
    systems = differential_systems(data_dir, hubs=(5, 60))
    systems += [split_hub_system(agents) for agents in (3, 12, 40)]
    systems += [no_hub_system(rng, agents) for agents in (5, 60)]
    systems.append(disjoint_union(hub_system(rng, 30)[0], generate_counterexample(c4)))
    systems += _zero_mass_systems(34, 500)
    fired = {"violations": 0, "asymmetries": 0}
    for system in systems:
        report = pairwise_compatibility(system)
        assert report == reference.pairwise_compatibility(system)
        fired["violations"] += bool(report.violations)
        fired["asymmetries"] += bool(report.asymmetries)
    # the sample reaches both kinds of pairwise certificate
    assert fired["violations"] > 1000 and fired["asymmetries"] > 200


def _read_to(X, depth):
    """X as read through level ``depth`` only, as a listed complex; X itself for None."""
    if depth is None:
        return X
    return SimplicialComplex(X.vertices, list(takewhile(bool, map(X.simplices, range(depth + 1)))))


@pytest.mark.parametrize("max_dim", [None, 0, 1, 2, 3])
def test_overlap_complexes_equal_the_reference(max_dim):
    top = 0
    for system in seeded_systems():
        X = _read_to(build_overlap_complex(system), max_dim)
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
    return _read_to(from_facets(system.names, [group for group in groups if group]), max_dim)


@pytest.mark.parametrize("max_dim", [None, 0, 1, 2, 3])
def test_without_a_split_edge_the_complex_is_generated_by_the_weighting_groups(max_dim):
    unsplit = 0
    for system in seeded_systems():
        if _split_edges(system):
            continue
        unsplit += 1
        X = _read_to(build_overlap_complex(system), max_dim)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
        assert X == _generated_complex(system, max_dim)
    assert unsplit > 150


@pytest.mark.parametrize("max_dim", [None, 1, 2, 3])
def test_without_a_zero_mass_the_complex_is_listed_without_the_table(max_dim):
    listed = 0
    for system in seeded_systems():
        if any(agent.positive != agent.support for agent in system.agents):
            continue
        listed += 1
        X = _read_to(build_overlap_complex(system), max_dim)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
        assert _read_to(build_overlap_complex(system), max_dim) == X
    assert listed > 100


@pytest.mark.parametrize("max_dim", [None, 1, 2, 3])
def test_outcomes_held_only_at_zero_are_listed_without_the_table(max_dim):
    # no outcome is held at 0 by one agent and weighted by another, so
    # the holders of each weighted outcome are its weighting group
    rng = random.Random(28)
    systems = [hub_system(rng, 12, held_at_zero=True)[0]]
    systems += [conditioned_system(rng, max_agents=8) for _ in range(300)]
    systems += seeded_systems()
    listed = 0
    for system in systems:
        zeros = {x for agent in system.agents for x, c in agent.counts[1].items() if not c}
        weighted = {x for agent in system.agents for x in agent.positive}
        if not zeros or zeros & weighted:
            continue
        listed += 1
        X = _read_to(build_overlap_complex(system), max_dim)
        assert X == reference.build_overlap_complex(system, max_dim=max_dim)
    assert listed > 200


def test_the_overlap_complex_never_reads_the_table(data_dir):
    # no table of overlapping pairs exists: the complex is read off the
    # weighting groups alone, and is the reference's on the seeded systems,
    # split hubs, every system file, and the counterexample of every
    # complex file with a hole, at every depth, read once or twice
    systems = seeded_systems() + [split_hub_system(agents) for agents in (3, 12, 40)]
    for path in sorted(data_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        if "agents" in raw:
            systems.append(validate(raw))
            continue
        try:
            systems.append(generate_counterexample(from_facets(raw["vertices"], raw["facets"])))
        except NoHoleError:
            pass
    split = 0
    for system in systems:
        # the full simplex on a 40-agent hub is read to a bounded depth only
        depths = [0, 1, 2, 3] + ([None] if len(system.agents) < 20 else [])
        listed = [_read_to(build_overlap_complex(system), depth) for depth in depths]
        assert listed == [reference.build_overlap_complex(system, max_dim=depth) for depth in depths]
        assert [_read_to(build_overlap_complex(system), depth) for depth in depths] == listed
        split += bool(_split_edges(system))
    assert split >= 50


def test_systems_with_a_split_edge_equal_the_reference():
    split = outside = 0
    for system in seeded_systems():
        if not _split_edges(system):
            continue
        split += 1
        X = build_overlap_complex(system)
        assert X == reference.build_overlap_complex(system)
        assert _read_to(build_overlap_complex(system), 2) == reference.build_overlap_complex(
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
    X = _read_to(build_overlap_complex(system), max_dim)
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
    # and the split pairs read off the weighting groups are exactly the
    # split edges of the reference complex, and the one-sided pairs the
    # reference's asymmetries
    split = 0
    for system in seeded_systems() + _zero_mass_systems(33, 500):
        expected = reference.pairwise_compatibility(system)
        names = system.names
        edges = _split_edges(system)
        assert {(names[i], names[j]) for i, j in edges} <= {v.pair for v in expected.violations}
        groups, held_at_zero = complexes._weighting_groups(system)
        split_pairs, one_sided = complexes._sign_pairs(system, groups, held_at_zero)
        assert sorted(split_pairs) == edges
        pairs = [(names[i], names[j]) for i, j in sorted(one_sided)]
        assert pairs == [a.pair for a in expected.asymmetries]
        split += bool(edges)
    assert split > 200


def test_hub_complex_is_the_full_2_skeleton():
    system = hub_system(random.Random(5), 60)[0]
    X = _read_to(build_overlap_complex(system), 2)
    assert X.counts() == [60, 1770, 34220]
    assert X == reference.build_overlap_complex(system, max_dim=2)


def test_ratio_cochains_equal_the_reference():
    for system in seeded_systems():
        X = reference.build_overlap_complex(system)
        ours = ratio_cochain(system)
        assert ours.complex == X
        assert ours.ratios == reference.ratio_cochain(system, X).ratios


def test_oracle_equals_the_all_pairs_oracle():
    found = 0
    for system in seeded_systems():
        measure = feasibility_oracle(system)
        assert measure == reference.feasibility_oracle(system)
        if measure is not None:
            assert list(measure) == list(reference.feasibility_oracle(system))
            found += 1
    assert found > 100
