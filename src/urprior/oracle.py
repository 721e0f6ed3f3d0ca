"""Independent feasibility check for a common prior.

This path never looks at overlap complexes, cochains, or scaling
solutions: it treats the problem as plain linear feasibility in the
sector masses and propagates constraints through the graph of outcomes
that two agents both weight positively. It exists to cross-check the
main pipeline, so it deliberately shares nothing with it beyond the data
model and exact rational arithmetic: it reads each agent's ``masses``,
every pmf value as its reduced integer pair, and works in plain
integers. Each sector mass is a reduced pair (a, b), meaning a / b,
extended along a link with one ``gcd``; the links that extension did
not cross are checked by cross-multiplication; the outcome masses are
summed over one common denominator. The only ``Fraction`` it builds is
each returned mass, one ``gcd`` apiece.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm

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

    In integers: s_i is the reduced pair (a_i, b_i); outcome x, weighted
    first by agent k, gets the reduced pair (r_x, t_x) of pmf_k(x) * s_k,
    and W_x = r_x * L / t_x over the lcm L of the t_x. The candidate is
    W_x / T with T the integer sum of the W_x, one ``Fraction`` each, and
    the re-check reads it as these integers.
    """
    agents = system.agents
    n = len(agents)
    aware_at: dict[str, list[int]] = {}
    for i, agent in enumerate(agents):
        for x in agent.masses:
            aware_at.setdefault(x, []).append(i)
    union = [x for x in system.space.outcomes if x in aware_at]

    # An outcome one agent rules out and another weights positively is an
    # immediate contradiction: the measure would need to be 0 and > 0.
    positive_at: dict[str, list[int]] = {}
    for x in union:
        aware = aware_at[x]
        positives = [i for i in aware if agents[i].masses[x][0] > 0]
        if positives and len(positives) != len(aware):
            return None
        positive_at[x] = positives

    # Linking every positive agent at x to the first one pins the same
    # sector ratios as linking every pair of them. A link (i, j, p, q)
    # says s_j == s_i * p / q, with p / q == pmf_i(x) / pmf_j(x) unreduced.
    links: list[tuple[int, int, int, int]] = []
    adjacency: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for x in union:
        positives = positive_at[x]
        if not positives:
            continue
        i = positives[0]
        ni, di = agents[i].masses[x]
        for j in positives[1:]:
            nj, dj = agents[j].masses[x]
            p, q = ni * dj, di * nj
            adjacency[i].append((j, p, q, len(links)))
            adjacency[j].append((i, q, p, len(links)))
            links.append((i, j, p, q))

    # s_v == s_u * p / q, reduced with one gcd per step. A link the walk
    # crosses holds by construction; every other link is checked after.
    sector: list[tuple[int, int] | None] = [None] * n
    crossed = [False] * len(links)
    for root in range(n):
        if sector[root] is not None:
            continue
        sector[root] = (1, 1)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            a, b = sector[u]
            for v, p, q, link in adjacency[u]:
                if sector[v] is None:
                    num, den = a * p, b * q
                    g = gcd(num, den)
                    sector[v] = (num // g, den // g)
                    crossed[link] = True
                    queue.append(v)
    for (i, j, p, q), tree in zip(links, crossed):
        (ai, bi), (aj, bj) = sector[i], sector[j]
        if not tree and aj * bi * q != ai * p * bj:
            return None

    # Each outcome's mass pmf_k(x) * s_k, reduced once, then over the lcm
    # L of those denominators: W_x == r_x * L / t_x.
    reduced: list[tuple[int, int]] = []
    L = 1
    for x in union:
        positives = positive_at[x]
        if not positives:
            reduced.append((0, 1))
            continue
        k = positives[0]
        m, d = agents[k].masses[x]
        a, b = sector[k]
        num, den = m * a, d * b
        g = gcd(num, den)
        t = den // g
        reduced.append((num // g, t))
        if L % t:
            L = lcm(L, t)
    W = {x: r * (L // t) for x, (r, t) in zip(union, reduced)}
    total = sum(W.values())
    if total <= 0:
        return None

    # Full direct re-check of the constraints that define feasibility, on
    # the candidate W_x / total: agent i's sector is the integer sum S of
    # W_x over its awareness set, and candidate(x) == pmf_i(x) * S / total
    # reads W_x * d == m * S, with pmf_i(x) the reduced pair (m, d).
    for agent in agents:
        S = sum(W[x] for x in agent.masses)
        if S <= 0:
            return None
        for x, (m, d) in agent.masses.items():
            if W[x] * d != m * S:
                return None
    return {x: Fraction(w, total) for x, w in W.items()}
