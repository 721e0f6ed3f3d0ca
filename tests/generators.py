"""Seeded random builders shared by the property and acceptance tests."""

from __future__ import annotations

import json
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import Any

from urprior.complexes import SimplicialComplex, from_facets
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace, validate

from . import dense_reference as dense
from .fraction_reference import mass


def random_system(
    rng: random.Random, max_agents: int = 6, max_outcomes: int = 8, min_agents: int = 1
) -> AgentSystem:
    """Unconstrained random system: arbitrary supports and integer-weight pmfs.

    Zero weights are kept in the table (awareness without mass), so the
    output exercises asymmetries and shared-zero overlaps as well.
    """
    n_outcomes = rng.randint(2, max_outcomes)
    outcomes = tuple(f"o{i}" for i in range(1, n_outcomes + 1))
    n_agents = rng.randint(min_agents, max_agents)
    agents = []
    for a in range(1, n_agents + 1):
        support = rng.sample(outcomes, rng.randint(1, n_outcomes))
        weights = [rng.randint(0, 4) for _ in support]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        pmf = {x: Fraction(w, total) for x, w in zip(support, weights)}
        agents.append(CredenceFunction(str(a), pmf))
    return AgentSystem(OutcomeSpace(outcomes), tuple(agents))


def conditioned_system(
    rng: random.Random,
    max_agents: int = 6,
    max_outcomes: int = 8,
    common_outcome: bool = False,
    min_agents: int = 2,
) -> AgentSystem:
    """Pairwise-compatible system: every agent conditions one hidden measure.

    Restricting a single integer-weight measure to each awareness set and
    normalizing always produces agents that agree on conditionals, and
    the hidden measure itself (restricted to the union and normalized)
    reconciles them. With ``common_outcome`` every awareness set shares
    one outcome of strictly positive weight.
    """
    n_outcomes = rng.randint(3, max_outcomes)
    outcomes = tuple(f"o{i}" for i in range(1, n_outcomes + 1))
    weights = {x: Fraction(rng.randint(0, 6)) for x in outcomes}
    core = rng.choice(outcomes)
    weights[core] = Fraction(rng.randint(1, 6))
    positive = [x for x in outcomes if weights[x] > 0]

    n_agents = rng.randint(min_agents, max_agents)
    agents = []
    for a in range(1, n_agents + 1):
        support = set(rng.sample(outcomes, rng.randint(1, n_outcomes)))
        if common_outcome:
            support.add(core)
        if not any(weights[x] > 0 for x in support):
            support.add(rng.choice(positive))
        sector = sum(weights[x] for x in support)
        pmf = {x: weights[x] / sector for x in sorted(support)}
        agents.append(CredenceFunction(str(a), pmf))
    return AgentSystem(OutcomeSpace(outcomes), tuple(agents))


def random_complex(rng: random.Random, max_vertices: int = 7) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(1, n + 1)]
    facets = []
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.randint(1, min(n, 4))
        facets.append(rng.sample(vertices, size))
    return from_facets(vertices, facets)


def holonomy_from_pmfs(system: AgentSystem, cycle: tuple[str, ...]) -> Fraction:
    """Ratio product around a cycle, recomputed from the raw pmfs alone."""
    agents = {a.name: a for a in system.agents}
    product = Fraction(1)
    for u_name, v_name in zip(cycle, cycle[1:] + cycle[:1]):
        u, v = agents[u_name], agents[v_name]
        shared = u.support & v.support
        product *= mass(u, shared) / mass(v, shared)
    return product


def window_chain(
    rng: random.Random, agents: int, window: int = 4, growth: int = 1
) -> tuple[AgentSystem, dict[str, Fraction]]:
    """Agent i is aware of outcomes i .. i+window-1, all conditioned from one hidden measure.

    Outcome k has hidden weight c_k * growth**k, c_k drawn from 1..6, so
    a large ``growth`` gives masses of many bits. Returns the system and
    the hidden measure normalized over the union, which is the ur-prior
    the decision must find.
    """
    count = agents + window - 1
    outcomes = tuple(f"o{k}" for k in range(count))
    weights = [Fraction(rng.randint(1, 6) * growth**k) for k in range(count)]
    agent_list = []
    for i in range(agents):
        sector = sum(weights[i : i + window])
        pmf = {outcomes[k]: weights[k] / sector for k in range(i, i + window)}
        agent_list.append(CredenceFunction(f"a{i}", pmf))
    total = sum(weights)
    return AgentSystem(OutcomeSpace(outcomes), tuple(agent_list)), {
        x: w / total for x, w in zip(outcomes, weights)
    }


def hub_system(
    rng: random.Random, agents: int, held_at_zero: bool = False
) -> tuple[AgentSystem, dict[str, Fraction]]:
    """Agent i is aware of one shared outcome and one private outcome, all conditioned from one measure.

    Every group of agents shares the hub outcome, which all of them
    weight, so the overlap complex is the full simplex on the agents:
    every pair is an edge and every triple a triangle. With
    ``held_at_zero`` every agent is also aware of one more shared
    outcome, "nil", of hidden weight 0; the complex is the same. Returns
    the system and the hidden measure normalized over the union, the
    ur-prior the decision must find.
    """
    outcomes = ("hub",) + tuple(f"p{i}" for i in range(agents))
    weights = {x: Fraction(rng.randint(1, 6)) for x in outcomes}
    if held_at_zero:
        outcomes += ("nil",)
        weights["nil"] = Fraction(0)
    agent_list = []
    for i in range(agents):
        mine = ("hub", f"p{i}", "nil") if held_at_zero else ("hub", f"p{i}")
        sector = sum(weights[x] for x in mine)
        agent_list.append(CredenceFunction(f"a{i}", {x: weights[x] / sector for x in mine}))
    total = sum(weights.values())
    return AgentSystem(OutcomeSpace(outcomes), tuple(agent_list)), {
        x: w / total for x, w in weights.items()
    }


def split_hub_system(agents: int) -> AgentSystem:
    """``agents`` agents weight one hub outcome; one more, listed last, holds it at mass 0.

    Agent a<i> weights the hub and its private outcome p<i> equally; the
    last agent weights every p<i> equally and the hub not at all, so each
    of its edges is sign-split. The overlap complex is the full simplex on
    the hub's weighters plus one edge from each of them to the last agent,
    which lies in no triangle: the holders of the hub include it, but it
    weights nothing every group of three holds.
    """
    outcomes = ("hub",) + tuple(f"p{i}" for i in range(agents))
    half = Fraction(1, 2)
    agent_list = [CredenceFunction(f"a{i}", {"hub": half, f"p{i}": half}) for i in range(agents)]
    last = {"hub": Fraction(0)} | {x: Fraction(1, agents) for x in outcomes[1:]}
    agent_list.append(CredenceFunction("holder", last))
    return AgentSystem(OutcomeSpace(outcomes), tuple(agent_list))


def geometric_chain(agents: int, ratio: int) -> AgentSystem:
    """Agent i is aware of outcomes i and i+1 and weights them 1 : ratio.

    The only common prior is proportional to ratio**k on outcome k, so its
    numbers grow by a factor of ``ratio`` per agent.
    """
    outcomes = tuple(f"o{k}" for k in range(agents + 1))
    agent_list = [
        CredenceFunction(
            f"a{i}",
            {outcomes[i]: Fraction(1, ratio + 1), outcomes[i + 1]: Fraction(ratio, ratio + 1)},
        )
        for i in range(agents)
    ]
    return AgentSystem(OutcomeSpace(outcomes), tuple(agent_list))


def disjoint_union(*parts: AgentSystem) -> AgentSystem:
    """The parts side by side, with part k's agent and outcome labels prefixed ``k:``.

    No outcome is shared across parts, so the overlap complex has at least
    one component per part, and a common prior exists exactly when each
    part has one.
    """
    outcomes: list[str] = []
    agents: list[CredenceFunction] = []
    for k, part in enumerate(parts):
        outcomes += [f"{k}:{x}" for x in part.space.outcomes]
        agents += [
            CredenceFunction(f"{k}:{a.name}", {f"{k}:{x}": v for x, v in a.pmf.items()})
            for a in part.agents
        ]
    return AgentSystem(OutcomeSpace(tuple(outcomes)), tuple(agents))


def annulus(rng: random.Random, m: int) -> SimplicialComplex:
    """A triangulated annulus: rings u0..u(m-1) and v0..v(m-1), 2m vertices, 4m edges, 2m triangles.

    H^1 = 1. The vertex order is shuffled by the seed, which changes every
    orientation and the canonical simplex order.
    """
    facets = []
    for i in range(m):
        j = (i + 1) % m
        facets.append([f"u{i}", f"u{j}", f"v{i}"])
        facets.append([f"u{j}", f"v{i}", f"v{j}"])
    vertices = [f"u{i}" for i in range(m)] + [f"v{i}" for i in range(m)]
    rng.shuffle(vertices)
    return from_facets(vertices, facets)


def pairwise_system(
    X: SimplicialComplex,
    cocycle: dict[tuple[int, ...], int],
    weights: dict[tuple[int, ...], int | Fraction],
) -> AgentSystem:
    """Agents that agree pairwise, built on X from an integer 1-cocycle and simplex weights.

    ``generate_counterexample`` with any cocycle and any weights: each
    simplex s of X is one outcome, named by its label, and vertex i is an
    agent aware of the simplices that contain it, weighting s as
    ``weights[s] * 2**c(i, top)``, top the last (so largest) vertex of s,
    c the cocycle and c(top, top) = 0. ``cocycle`` maps every edge of X
    to an int with zero coboundary, and every weight is positive. Two
    agents i and j then weigh each shared simplex in the ratio 2**c(i, j),
    since c(i, top) - c(j, top) = c(i, j) on every simplex, so the system
    is pairwise compatible; its overlap complex is X; and it has a common
    prior exactly when the cocycle is a coboundary.
    """

    def exponent(i: int, top: int) -> int:
        return cocycle[(i, top)] if i < top else 0

    simplices = [s for level in X.by_dim for s in level]
    agents = []
    for i, name in enumerate(X.vertices):
        mine = [s for s in simplices if i in s]
        raw = {X.label(s): weights[s] * Fraction(2) ** exponent(i, s[-1]) for s in mine}
        total = sum(raw.values())
        agents.append(CredenceFunction(name, {x: w / total for x, w in raw.items()}))
    return AgentSystem(OutcomeSpace(tuple(X.label(s) for s in simplices)), tuple(agents))


def random_cocycle(X: SimplicialComplex, rng: random.Random) -> dict[tuple[int, ...], int]:
    """A seeded integer 1-cocycle: a random integer mix of a kernel basis of delta_1.

    Each basis vector is cleared of denominators first, so the mix is an
    integer cochain with zero coboundary. Nothing here knows which
    cocycles are coboundaries.
    """
    edges = X.simplices(1)
    values = [0] * len(edges)
    for vector in dense.nullspace_basis(dense.coboundary_matrix(X, 1)):
        scale = lcm(*(v.denominator for v in vector))
        k = rng.randint(-2, 2)
        values = [a + k * int(v * scale) for a, v in zip(values, vector)]
    return dict(zip(edges, values))


def random_weights(X: SimplicialComplex, rng: random.Random) -> dict[tuple[int, ...], int]:
    return {s: rng.randint(1, 5) for level in X.by_dim for s in level}


def closure(
    vertices: Sequence[str], family: Iterable[Iterable[str]]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """By brute force: the vertices plus every nonempty subset of every facet, as levels."""
    index = {label: i for i, label in enumerate(vertices)}
    faces = {(i,) for i in range(len(vertices))}
    for facet in family:
        members = sorted({index[label] for label in facet})
        for size in range(1, len(members) + 1):
            faces.update(combinations(members, size))
    top = max(map(len, faces), default=0)
    return tuple(tuple(sorted(s for s in faces if len(s) == k + 1)) for k in range(top))


def facets(X: SimplicialComplex) -> list[tuple[int, ...]]:
    """Maximal simplices of X: faces of nothing one dimension up."""
    out: list[tuple[int, ...]] = []
    for k, level in enumerate(X.by_dim):
        covered: set[tuple[int, ...]] = set()
        for s in X.simplices(k + 1):
            covered.update(combinations(s, k + 1))
        out.extend(s for s in level if s not in covered)
    return out


def complex_to_dict(X: SimplicialComplex) -> dict[str, Any]:
    """X in the complex file shape: its vertex labels and its facets by label."""
    return {"vertices": list(X.vertices), "facets": [[X.vertices[i] for i in f] for f in facets(X)]}


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


def seeded_systems() -> list[AgentSystem]:
    """231 seeded systems of every kind, the edge cases above among them.

    The library's fast paths are tested against their reference versions
    on this set. Each call returns new systems, the edge cases copied, so
    that no cache an earlier test built decides which path a call takes.
    """
    rng = random.Random(2024)
    out = [AgentSystem(system.space, system.agents) for system in EDGE_CASES.values()]
    for k in range(120):
        out.append(random_system(rng, max_agents=1 + k % 9, max_outcomes=2 + k % 9))
    for k in range(100):
        sizes = {"max_agents": 2 + k % 9, "max_outcomes": 3 + k % 8}
        out.append(conditioned_system(rng, **sizes, common_outcome=k % 3 == 0))
    for agents in (1, 2, 5, 12):
        out.append(window_chain(rng, agents, window=1 + agents % 4)[0])
    return out


def differential_systems(data_dir: Path, hubs: Sequence[int]) -> list[AgentSystem]:
    """Fresh systems on which a fast path is held equal to the one it skips.

    The seeded systems, the system files of ``data_dir``, 4,000
    ``random_system`` and ``conditioned_system`` draws (half of the latter
    with a common outcome), hubs of the given sizes, window chains of
    growth 1 and 1000, and a disjoint union of two chains, which pins the
    per-component root unit.
    """
    systems = seeded_systems()
    for path in sorted(data_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        if "agents" in raw:
            systems.append(validate(raw))
    rng = random.Random(26)
    for k in range(2000):
        systems.append(random_system(rng, max_agents=1 + k % 9, max_outcomes=2 + k % 9))
        sizes = {"max_agents": 2 + k % 9, "max_outcomes": 3 + k % 8}
        systems.append(conditioned_system(rng, **sizes, common_outcome=k % 2 == 0))
    systems += [hub_system(rng, n)[0] for n in hubs]
    systems += [window_chain(rng, n, growth=growth)[0] for n in (2, 7, 64) for growth in (1, 1000)]
    # two components: each is scaled from its own lowest agent at (1, d_root)
    systems.append(
        disjoint_union(window_chain(rng, 24, growth=1000)[0], window_chain(rng, 9, window=3)[0])
    )
    return systems
