"""Seeded input generators for the benchmark.

Modelled on the test suite's generators but independent of them, so an
edit to the tests cannot change what the benchmark measures. Every
generator returns plain JSON-shaped data (fractions as "p/q" strings)
together with what the benchmark knows about it by construction, such as
the hidden measure the agents were conditioned from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


@dataclass(frozen=True)
class ChainInput:
    """A sliding-window chain: agent i is aware of outcomes i .. i+window-1.

    ``expected`` is the hidden measure normalized over the union when no
    violation was planted, else None. ``planted`` is the index of the
    agent whose pmf was perturbed, or None.
    """

    raw: dict[str, Any]
    expected: dict[str, Fraction] | None
    planted: int | None


@dataclass(frozen=True)
class SmallInput:
    """A small random system; ``feasible`` is True when it is conditioned by construction."""

    raw: dict[str, Any]
    feasible: bool | None


def _raw_system(outcomes: list[str], pmfs: list[dict[str, Fraction]], names: list[str]) -> dict[str, Any]:
    return {
        "outcomes": list(outcomes),
        "agents": [
            {"name": name, "credence": {x: str(p) for x, p in pmf.items()}}
            for name, pmf in zip(names, pmfs)
        ],
    }


def chain_system(
    rng: random.Random, agents: int, window: int = 4, growth: int = 1, plant: bool = False
) -> ChainInput:
    """Agents conditioned from one hidden integer-weight measure on a sliding window.

    Outcome k has hidden weight c_k * growth**k with c_k drawn from 1..6,
    so with ``growth`` 1000 the normalized measure carries entries of
    about 10 bits per outcome. With ``plant`` the pmf values of outcomes
    i+1 and i+2 are swapped for one seeded agent i, which breaks its
    conditional agreement with agent i-2 on their shared outcomes.
    """
    count = agents + window - 1
    width = len(str(count - 1))
    outcomes = [f"o{k:0{width}d}" for k in range(count)]
    weights = [rng.randint(1, 6) * growth**k for k in range(count)]
    names = [f"a{i:0{len(str(agents - 1))}d}" for i in range(agents)]
    pmfs = []
    for i in range(agents):
        sector = sum(weights[i : i + window])
        pmfs.append({outcomes[k]: Fraction(weights[k], sector) for k in range(i, i + window)})
    planted = None
    if plant:
        if growth < 2:
            raise ValueError("planting needs growth >= 2, so the swapped values differ")
        planted = rng.randrange(2, agents - 1)
        pmf = pmfs[planted]
        a, b = outcomes[planted + 1], outcomes[planted + 2]
        pmf[a], pmf[b] = pmf[b], pmf[a]
    total = sum(weights)
    expected = None if plant else {x: Fraction(w, total) for x, w in zip(outcomes, weights)}
    return ChainInput(_raw_system(outcomes, pmfs, names), expected, planted)


def annulus_complex(rng: random.Random, m: int) -> dict[str, Any]:
    """A triangulated annulus: rings u0..u(m-1) and v0..v(m-1), 2m triangles.

    It has 2m vertices, 4m edges and H^1 = 1. The vertex order in the
    file is shuffled by the seed, which changes every orientation and the
    canonical order downstream.
    """
    facets = []
    for i in range(m):
        j = (i + 1) % m
        facets.append([f"u{i}", f"u{j}", f"v{i}"])
        facets.append([f"u{j}", f"v{i}", f"v{j}"])
    vertices = [f"u{i}" for i in range(m)] + [f"v{i}" for i in range(m)]
    rng.shuffle(vertices)
    return {"vertices": vertices, "facets": facets}


def random_system(rng: random.Random, agents: int, outcomes: int) -> SmallInput:
    """Unconstrained: arbitrary awareness sets and integer weights 0..4.

    Zero weights stay in the table (awareness without mass), so these
    systems produce violations, one-sided overlaps and zero-mass
    awareness as well as feasible cases.
    """
    labels = [f"o{k}" for k in range(1, outcomes + 1)]
    pmfs = []
    for _ in range(agents):
        support = rng.sample(labels, rng.randint(1, outcomes))
        weights = [rng.randint(0, 4) for _ in support]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        pmfs.append({x: Fraction(w, total) for x, w in zip(support, weights)})
    names = [str(i) for i in range(1, len(pmfs) + 1)]
    return SmallInput(_raw_system(labels, pmfs, names), None)


def conditioned_system(rng: random.Random, agents: int, outcomes: int) -> SmallInput:
    """Every agent conditions one hidden measure, so a common prior exists."""
    labels = [f"o{k}" for k in range(1, outcomes + 1)]
    weights = {x: rng.randint(0, 6) for x in labels}
    weights[rng.choice(labels)] = rng.randint(1, 6)
    positive = [x for x in labels if weights[x] > 0]
    pmfs = []
    for _ in range(agents):
        support = set(rng.sample(labels, rng.randint(1, outcomes)))
        if not any(weights[x] for x in support):
            support.add(rng.choice(positive))
        sector = sum(weights[x] for x in support)
        pmfs.append({x: Fraction(weights[x], sector) for x in sorted(support)})
    names = [str(i) for i in range(1, len(pmfs) + 1)]
    return SmallInput(_raw_system(labels, pmfs, names), True)
