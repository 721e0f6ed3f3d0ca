"""Fraction-only exact checks: the reference the integer cross-multiplications are tested against.

These are the mass of an event, the pairwise test, ``solve_scaling``,
``glue_urprior``, ``verify_urprior`` and the oracle as they were before
the library decided its equalities on per-agent integer counts. Every
sum, product and comparison here is ``fractions.Fraction`` arithmetic,
which reduces each intermediate value to lowest terms. They are kept
here, unchanged in behaviour, so that tests can require the integer
versions to give equal reports, scalings, certificates, measures,
diagnostics and errors.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping

from urprior.compat import (
    Asymmetry,
    CompatibilityReport,
    CycleCertificate,
    GluingError,
    RatioCochain,
    VerificationReport,
    Violation,
    _forest_path,
)
from urprior.complexes import SimplicialComplex, spanning_forest
from urprior.credence import AgentSystem, CredenceFunction
from urprior.numerics import format_rational


def mass(agent: CredenceFunction, event: Iterable[str]) -> Fraction:
    return sum((agent.pmf[x] for x in event if x in agent.pmf), start=Fraction(0))


def pairwise_compatibility(system: AgentSystem) -> CompatibilityReport:
    agents = system.agents
    violations: list[Violation] = []
    asymmetries: list[Asymmetry] = []
    for (i, j), (shared, _, _) in system.overlaps.items():
        left, right = agents[i], agents[j]
        mass_left, mass_right = mass(left, shared), mass(right, shared)
        if mass_left > 0 and mass_right > 0:
            for x in shared[:-1]:
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


def solve_scaling(
    X: SimplicialComplex, ratios: RatioCochain
) -> tuple[dict[str, Fraction] | None, CycleCertificate | None]:
    table = ratios.ratios

    def step(u: int, v: int) -> Fraction:
        return table[(u, v)] if u < v else 1 / table[(v, u)]

    forest = spanning_forest(X)
    scale: dict[int, Fraction] = {}
    for v in forest.order:
        u = forest.parent.get(v)
        scale[v] = Fraction(1) if u is None else scale[u] * step(u, v)

    for i, j in forest.non_tree:
        if scale[i] * step(i, j) == scale[j]:
            continue
        path = _forest_path(j, i, forest.parent)
        cycle = [i, j] + path[1:-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        holonomy = Fraction(1)
        for u, v in zip(cycle, cycle[1:] + [cycle[0]]):
            holonomy *= step(u, v)
        labels = tuple(X.vertices[v] for v in cycle)
        return None, CycleCertificate(labels, holonomy, (X.vertices[i], X.vertices[j]))

    return {X.vertices[v]: scale[v] for v in range(len(X.vertices))}, None


def glue_urprior(system: AgentSystem, scaling: Mapping[str, Fraction]) -> dict[str, Fraction]:
    merged: dict[str, Fraction] = {}
    first_source: dict[str, str] = {}
    for agent in system.agents:
        factor = scaling.get(agent.name)
        if factor is None or factor <= 0:
            raise ValueError(f"scaling must assign a positive factor to agent {agent.name}")
        for outcome, p in agent.pmf.items():
            rescaled = factor * p
            if outcome in merged:
                if merged[outcome] != rescaled:
                    raise GluingError(
                        f"agents {first_source[outcome]} and {agent.name} assign different "
                        f"rescaled masses to {outcome!r}"
                    )
            else:
                merged[outcome] = rescaled
                first_source[outcome] = agent.name
    total = sum(merged.values(), start=Fraction(0))
    if total <= 0:
        raise GluingError("glued measure has zero total mass")
    return {x: merged[x] / total for x in system.space.outcomes if x in merged}


def verify_urprior(system: AgentSystem, measure: Mapping[str, Fraction]) -> VerificationReport:
    diagnostics: list[str] = []
    ok = True
    values = {x: Fraction(v) for x, v in measure.items()}

    negatives = sorted(x for x, v in values.items() if v < 0)
    if negatives:
        ok = False
        diagnostics.append(f"negative mass on {negatives[0]!r}")
    total = sum(values.values(), start=Fraction(0))
    if total != 1:
        ok = False
        diagnostics.append(f"total mass is {format_rational(total)}, not 1")
    union = system.union_support()
    stray = sorted(x for x, v in values.items() if v != 0 and x not in union)
    if stray:
        ok = False
        diagnostics.append(f"positive mass outside every awareness set: {stray}")

    for agent in system.agents:
        sector = sum((values.get(x, Fraction(0)) for x in agent.support), start=Fraction(0))
        if sector == 0:
            ok = False
            diagnostics.append(f"agent {agent.name}: awareness set carries zero mass")
            continue
        bad = None
        for x in sorted(agent.support):
            if values.get(x, Fraction(0)) != agent.pmf[x] * sector:
                bad = x
                break
        if bad is None:
            diagnostics.append(f"agent {agent.name}: ok")
        else:
            ok = False
            got = values.get(bad, Fraction(0)) / sector
            diagnostics.append(
                f"agent {agent.name}: conditional of {bad!r} is {format_rational(got)}, "
                f"expected {format_rational(agent.pmf[bad])}"
            )
    return VerificationReport(ok, tuple(diagnostics))


def feasibility_oracle(system: AgentSystem) -> dict[str, Fraction] | None:
    agents = system.agents
    n = len(agents)
    aware_at: dict[str, list[int]] = {}
    for i, agent in enumerate(agents):
        for x in agent.pmf:
            aware_at.setdefault(x, []).append(i)
    union = [x for x in system.space.outcomes if x in aware_at]

    positive_at: dict[str, list[int]] = {}
    for x in union:
        aware = aware_at[x]
        positives = [i for i in aware if agents[i].pmf[x] > 0]
        if positives and len(positives) != len(aware):
            return None
        positive_at[x] = positives

    links: list[tuple[int, int, Fraction]] = []
    adjacency: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(n)}
    for x in union:
        positives = positive_at[x]
        for j in positives[1:]:
            i = positives[0]
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
        s = sum((candidate[x] for x in agent.pmf), start=Fraction(0))
        if s <= 0:
            return None
        for x in agent.pmf:
            if candidate[x] != agent.pmf[x] * s:
                return None
    return candidate
