"""All-pairs overlap scans: the reference the indexed overlap table is tested against.

These are the pairwise scan, overlap complex, ratio cochain and oracle
link construction as they were before the library read them off an
outcome -> agents index: the pairwise scan and the ratio cochain now off
the edges of the overlap complex, and the complex off the groups of
agents that weight each outcome. Each pair of agents is visited, and
each overlap is rebuilt and summed, on its own. They are kept here,
unchanged in behaviour, so that tests can require the indexed results
to equal the all-pairs ones.

``overlap_mass``, the mass one agent gives a group's joint overlap, is
kept here too: the library never calls it, and tests recheck the overlap
complex against it, group by group. So is ``connected_components``, the
components of a complex's 1-skeleton, read off its spanning forest, that
tests compare with the library's component counts.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations

from urprior.compat import Asymmetry, CompatibilityReport, RatioCochain, Violation
from urprior.complexes import Simplex, SimplicialComplex, spanning_forest
from urprior.credence import AgentSystem

from .fraction_reference import mass


def pairwise_compatibility(system: AgentSystem) -> CompatibilityReport:
    violations: list[Violation] = []
    asymmetries: list[Asymmetry] = []
    for left, right in combinations(system.agents, 2):
        shared = left.support & right.support
        if not shared:
            continue
        mass_left = mass(left, shared)
        mass_right = mass(right, shared)
        if mass_left > 0 and mass_right > 0:
            for x in sorted(shared):
                if left.pmf[x] * mass_right != right.pmf[x] * mass_left:
                    violations.append(
                        Violation(
                            (left.name, right.name),
                            x,
                            left.pmf[x] / mass_left,
                            right.pmf[x] / mass_right,
                        )
                    )
                    break
        elif mass_left > 0 or mass_right > 0:
            asymmetries.append(Asymmetry((left.name, right.name), mass_left, mass_right))
    return CompatibilityReport(not violations, tuple(violations), tuple(asymmetries))


def build_overlap_complex(system: AgentSystem, max_dim: int | None = None) -> SimplicialComplex:
    agents = system.agents
    n = len(agents)
    supports = [a.support for a in agents]
    pmfs = [a.pmf for a in agents]

    levels: list[tuple[Simplex, ...]] = [tuple((i,) for i in range(n))]
    k = 1
    while max_dim is None or k <= max_dim:
        prev = levels[k - 1]
        prev_set = set(prev)
        found: list[Simplex] = []
        for s in prev:
            shared = supports[s[0]]
            for i in s[1:]:
                shared = shared & supports[i]
            for v in range(s[-1] + 1, n):
                cand = s + (v,)
                if any(cand[:j] + cand[j + 1 :] not in prev_set for j in range(len(cand))):
                    continue
                overlap = shared & supports[v]
                if not overlap:
                    continue
                if all(sum(pmfs[i][x] for x in overlap) > 0 for i in cand):
                    found.append(cand)
        if not found:
            break
        levels.append(tuple(sorted(found)))
        k += 1
    return SimplicialComplex(system.names, tuple(levels))


def ratio_cochain(system: AgentSystem, X: SimplicialComplex) -> RatioCochain:
    agents = system.agents
    ratios: dict[tuple[int, int], Fraction] = {}
    for i, j in X.simplices(1):
        shared = agents[i].support & agents[j].support
        mass_i = mass(agents[i], shared)
        mass_j = mass(agents[j], shared)
        if mass_i <= 0 or mass_j <= 0:
            raise ValueError(
                f"edge {X.label((i, j))} lacks a two-sided positive overlap; "
                "X is not this system's overlap complex"
            )
        ratios[(i, j)] = mass_i / mass_j
    return RatioCochain(X, ratios)


def feasibility_oracle(system: AgentSystem) -> dict[str, Fraction] | None:
    """The oracle with a scan of all agents per outcome and a link per positive pair."""
    agents = system.agents
    n = len(agents)
    union = [x for x in system.space.outcomes if any(x in a.pmf for a in agents)]

    positive_at: dict[str, list[int]] = {}
    for x in union:
        aware = [(i, agents[i].pmf[x]) for i in range(n) if x in agents[i].pmf]
        positives = [i for i, m in aware if m > 0]
        if positives and len(positives) != len(aware):
            return None
        positive_at[x] = positives

    links: list[tuple[int, int, Fraction]] = []
    adjacency: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(n)}
    for x in union:
        positives = positive_at[x]
        for a in range(len(positives)):
            for b in range(a + 1, len(positives)):
                i, j = positives[a], positives[b]
                ratio = agents[i].pmf[x] / agents[j].pmf[x]
                links.append((i, j, ratio))
                adjacency[i].append((j, ratio))
                adjacency[j].append((i, 1 / ratio))

    sector: dict[int, Fraction] = {}
    for root in range(n):
        if root in sector:
            continue
        sector[root] = Fraction(1)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, ratio in adjacency[u]:
                if v not in sector:
                    sector[v] = sector[u] * ratio
                    queue.append(v)
    for i, j, ratio in links:
        if sector[j] != sector[i] * ratio:
            return None

    raw: dict[str, Fraction] = {}
    for x in union:
        positives = positive_at[x]
        raw[x] = agents[positives[0]].pmf[x] * sector[positives[0]] if positives else Fraction(0)
    total = sum(raw.values(), start=Fraction(0))
    if total <= 0:
        return None
    candidate = {x: raw[x] / total for x in union}

    for agent in agents:
        s = sum((candidate[x] for x in union if x in agent.pmf), start=Fraction(0))
        if s <= 0:
            return None
        for x in agent.pmf:
            if candidate[x] != agent.pmf[x] * s:
                return None
    return candidate


def overlap_mass(system: AgentSystem, agent_name: str, group: Iterable[str]) -> Fraction:
    """Mass one agent assigns to the joint overlap of a group of agents.

    ``agent_name`` must belong to ``group``, and every group member must
    name an agent of the system.
    """
    members = list(group)
    known = set(system.names)
    unknown = sorted(m for m in members if m not in known)
    if unknown:
        raise ValueError(f"unknown agent name(s): {unknown}")
    if agent_name not in members:
        raise ValueError(f"agent {agent_name!r} is not a member of the group")
    agents = {a.name: a for a in system.agents}
    overlap: frozenset[str] | None = None
    for member in members:
        support = agents[member].support
        overlap = support if overlap is None else overlap & support
    return mass(agents[agent_name], overlap or ())


def connected_components(X: SimplicialComplex) -> list[tuple[int, ...]]:
    """Vertex sets of the 1-skeleton's components, each sorted, ordered by minimum."""
    forest = spanning_forest(X)
    components: list[list[int]] = []
    for v in forest.order:
        if v not in forest.parent:
            components.append([])
        components[-1].append(v)
    return [tuple(sorted(c)) for c in components]
