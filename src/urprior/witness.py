"""Constructive irreconcilability.

Given a complex whose first cohomology does not vanish, build a system of
agents that is pairwise compatible, has exactly that complex as its
overlap complex, and admits no common prior. The twist is the canonical
1-cocycle of ``urprior.cohomology.noncoboundary_cocycle``, read as the
plain ``{edge: int}`` map it returns.
"""

from __future__ import annotations

from math import gcd

from urprior.cohomology import noncoboundary_cocycle
from urprior.complexes import SimplicialComplex
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace

__all__ = ["AmbiguousLabelError", "NoHoleError", "generate_counterexample"]


class NoHoleError(ValueError):
    """The complex has vanishing first cohomology, so no counterexample exists."""


class AmbiguousLabelError(ValueError):
    """Two simplices would get the same outcome label, so no system can be written."""


def generate_counterexample(X: SimplicialComplex) -> AgentSystem:
    """Agents that agree pairwise yet cannot share a prior.

    Each simplex of the complex becomes one outcome, and agent i is aware
    of exactly the simplices containing vertex i, so the overlap complex
    of the result is X itself (every point gets strictly positive mass).
    Point weights are powers of two driven by the canonical 1-cocycle of
    ``noncoboundary_cocycle`` (an ``{edge: int}`` map, not a coboundary,
    0 on the tree edges of the spanning forest), read between the agent
    and the top vertex of the simplex; after normalizing, the edge ratios
    of the system inherit the cocycle's twist, so no consistent global
    rescaling can exist.

    Each agent is built once, in integer form: its point weights are the
    integers 2^(e - min e) over their integer sum T, so one weight is 1
    and ``(T, weights)`` is exactly the agent's ``counts``; each mass is
    the pair ``(w / g, T / g)`` with g = gcd(w, T), and no ``Fraction``
    is built. The vertex -> simplices index is built in one pass, so the
    cost is linear in the number of (vertex, simplex) incidences. Every
    pmf is non-negative and sums to 1, names are the unique vertex
    labels, and every awareness set lies in the outcome space, so the
    agents and the system are built through their ``_canonical`` forms,
    unchecked.

    Outcomes are named by their simplex labels, vertex labels joined with
    commas, so a vertex label that holds a comma can give two simplices
    one name (vertex ``a,b`` and edge ``{a,b}``). That is caught before
    any agent is built and raised as ``AmbiguousLabelError``.
    """
    twist = noncoboundary_cocycle(X)
    if twist is None:
        raise NoHoleError(
            "first cohomology vanishes: every pairwise-compatible system with this "
            "overlap pattern extends to a common prior"
        )

    def exponent(i: int, top: int) -> int:
        # The cocycle on edge (i, top); top, the simplex's last vertex, is its largest.
        return twist[(i, top)] if i < top else 0

    simplices = [s for level in X.by_dim for s in level]
    labels = [X.label(s) for s in simplices]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise AmbiguousLabelError(
                f"outcome label {label!r} would name two simplices: a vertex label contains a comma"
            )
        seen.add(label)
    mine: list[list[int]] = [[] for _ in X.vertices]
    for k, s in enumerate(simplices):
        for i in s:
            mine[i].append(k)
    agents: list[CredenceFunction] = []
    for i, vertex_label in enumerate(X.vertices):
        exponents = [exponent(i, simplices[k][-1]) for k in mine[i]]
        low = min(exponents)
        weights = {labels[k]: 1 << (e - low) for k, e in zip(mine[i], exponents)}
        total = sum(weights.values())
        masses = {}
        for x, w in weights.items():
            g = gcd(w, total)
            masses[x] = (w // g, total // g)
        agents.append(CredenceFunction._canonical(vertex_label, masses, (total, weights)))
    return AgentSystem._canonical(OutcomeSpace(tuple(labels)), tuple(agents))
