"""Independent feasibility check for a common prior.

This path never looks at overlap complexes, cochains, or scaling
solutions: it treats the problem as plain linear feasibility in the
sector masses and propagates constraints through the graph of outcomes
that two agents both weight positively. It exists to cross-check the
main pipeline, so it deliberately shares nothing with it beyond the data
model and exact rational arithmetic. Its link test and its final
re-check compare integers by cross-multiplication, reading the
numerators and denominators of the pmf on its own; the candidate it
returns is a measure of reduced ``Fraction``s.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm

from urprior.credence import AgentSystem

__all__ = ["feasibility_oracle"]


def feasibility_oracle(system: AgentSystem) -> dict[str, Fraction] | None:
    """A measure whose conditionals recover every agent, or None.

    The unknowns are the sector masses s_i (the total the measure must
    give agent i's awareness set): any valid measure satisfies
    measure(x) == pmf_i(x) * s_i wherever agent i is aware of x. Two
    agents giving the same outcome positive mass therefore pin the ratio
    of their sector masses; propagating those links fixes every sector up
    to one scale per linkage class, and a single global normalization
    settles the scales. Every defining constraint is re-checked on the
    candidate before it is returned, so the oracle is sound on its own.
    """
    agents = system.agents
    n = len(agents)
    aware_at: dict[str, list[int]] = {}
    for i, agent in enumerate(agents):
        for x in agent.pmf:
            aware_at.setdefault(x, []).append(i)
    union = [x for x in system.space.outcomes if x in aware_at]

    # An outcome one agent rules out and another weights positively is an
    # immediate contradiction: the measure would need to be 0 and > 0.
    positive_at: dict[str, list[int]] = {}
    for x in union:
        aware = aware_at[x]
        positives = [i for i in aware if agents[i].pmf[x].numerator > 0]
        if positives and len(positives) != len(aware):
            return None
        positive_at[x] = positives

    # Linking every positive agent at x to the first one pins the same
    # sector ratios as linking every pair of them. A link (i, j, p, q)
    # says s_j == s_i * p / q, with p / q == pmf_i(x) / pmf_j(x) unreduced.
    links: list[tuple[int, int, int, int]] = []
    adjacency: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(n)}
    for x in union:
        positives = positive_at[x]
        if not positives:
            continue
        i = positives[0]
        mi = agents[i].pmf[x]
        for j in positives[1:]:
            mj = agents[j].pmf[x]
            p, q = mi.numerator * mj.denominator, mi.denominator * mj.numerator
            links.append((i, j, p, q))
            adjacency[i].append((j, p, q))
            adjacency[j].append((i, q, p))

    sector: dict[int, Fraction] = {}
    for root in range(n):
        if root in sector:
            continue
        sector[root] = Fraction(1)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, p, q in adjacency[u]:
                if v not in sector:
                    sector[v] = sector[u] * p / q
                    queue.append(v)
    for i, j, p, q in links:
        si, sj = sector[i], sector[j]
        if sj.numerator * si.denominator * q != si.numerator * p * sj.denominator:
            return None

    raw: dict[str, Fraction] = {}
    for x in union:
        positives = positive_at[x]
        raw[x] = agents[positives[0]].pmf[x] * sector[positives[0]] if positives else Fraction(0)
    total = sum(raw.values(), start=Fraction(0))
    if total <= 0:
        return None
    candidate = {x: raw[x] / total for x in union}

    # Full direct re-check of the constraints that define feasibility, on
    # the candidate written as w_x / D over one common denominator: agent
    # i's sector is the integer sum S of w_x over its awareness set, and
    # candidate(x) == pmf_i(x) * S / D reads w_x * den == num * S.
    D = 1
    for v in candidate.values():
        if D % v.denominator:
            D = lcm(D, v.denominator)
    w = {x: v.numerator * (D // v.denominator) for x, v in candidate.items()}
    for agent in agents:
        S = sum(w[x] for x in agent.pmf)
        if S <= 0:
            return None
        for x, m in agent.pmf.items():
            if w[x] * m.denominator != m.numerator * S:
                return None
    return candidate
