"""Constructive irreconcilability.

Given a complex whose first cohomology does not vanish, build a system of
agents that is pairwise compatible, has exactly that complex as its
overlap complex, and admits no common prior.
"""

from __future__ import annotations

from fractions import Fraction

from urprior.cohomology import noncoboundary_cocycle
from urprior.complexes import SimplicialComplex
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace

__all__ = ["NoHoleError", "generate_counterexample"]


class NoHoleError(ValueError):
    """The complex has vanishing first cohomology, so no counterexample exists."""


def generate_counterexample(X: SimplicialComplex) -> AgentSystem:
    """Agents that agree pairwise yet cannot share a prior.

    Each simplex of the complex becomes one outcome, and agent i is aware
    of exactly the simplices containing vertex i, so the overlap complex
    of the result is X itself (every point gets strictly positive mass).
    Point weights are powers of two driven by the canonical 1-cocycle of
    ``noncoboundary_cocycle`` (integer, not a coboundary, 0 on the tree
    edges of the spanning forest), evaluated between the agent and the
    top vertex of the simplex; after normalizing, the edge ratios of the
    system inherit the cocycle's twist, so no consistent global rescaling
    can exist. Using base 2 keeps every weight an exact dyadic rational.
    """
    cocycle = noncoboundary_cocycle(X)
    if cocycle is None:
        raise NoHoleError(
            "first cohomology vanishes: every pairwise-compatible system with this "
            "overlap pattern extends to a common prior"
        )
    twist = {edge: int(v) for edge, v in cocycle.values.items()}

    def exponent(i: int, top: int) -> int:
        # Antisymmetric extension of the cocycle to ordered vertex pairs.
        if i == top:
            return 0
        return twist[(i, top)] if i < top else -twist[(top, i)]

    simplices = [s for level in X.by_dim for s in level]
    labels = {s: X.label(s) for s in simplices}
    agents: list[CredenceFunction] = []
    for i, vertex_label in enumerate(X.vertices):
        mine = [s for s in simplices if i in s]
        weights = {labels[s]: Fraction(2) ** exponent(i, s[-1]) for s in mine}
        total = sum(weights.values(), start=Fraction(0))
        agents.append(CredenceFunction(vertex_label, {x: w / total for x, w in weights.items()}))
    return AgentSystem(OutcomeSpace(tuple(labels[s] for s in simplices)), tuple(agents))
