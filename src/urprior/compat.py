"""The decision pipeline for a common prior.

Steps: pairwise conditional checks, overlap-mass ratios on the 1-skeleton,
a spanning-forest scaling solution, gluing, and verification. Every
negative answer comes with a finite certificate (a conditional
disagreement, a one-sided overlap, or a cycle whose ratio product is
not 1), and every positive answer is re-verified before it is returned.

The decision (``_decision``, behind ``decide_urprior`` and the CLI's
``check``) reads every yes off star links, without the overlap table:
unless some outcome is held at 0 by one agent and weighted by another,
each weighted outcome links its first holder to every later one, and
agent i's unit g_i = scale_i / d_i, d_i its own denominator
(``CredenceFunction.counts``), is walked along those links as a reduced
integer pair from each component's lowest agent. If every link holds,
the masses are put over one lcm and verified on those integers. A yes
costs memory in proportion to the (agent, outcome) entries, not to the
overlapping pairs, whose number grows with the square of the agents on
a shared outcome. Otherwise no common prior exists, and the pairwise
scan and the forest propagation on the overlap sums M of
``system.overlaps`` find the certificate. ``solve_scaling``,
``glue_urprior`` and ``verify_urprior`` run the same propagation,
weighing and verification code. Every equality is an integer
cross-multiplication; a reduced ``Fraction`` is built only for what is
returned or printed: measures, scalings, ratios, certificates and
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from urprior.complexes import (
    SimplicialComplex,
    _generated,
    _weighting_groups,
    build_overlap_complex,
    spanning_forest,
)
from urprior.credence import AgentSystem, _Record
from urprior.numerics import common_denominator, format_rational

__all__ = [
    "Asymmetry",
    "Certificate",
    "CompatibilityReport",
    "CycleCertificate",
    "GluingError",
    "RatioCochain",
    "UrPriorResult",
    "VerificationReport",
    "Violation",
    "decide_urprior",
    "glue_urprior",
    "pairwise_compatibility",
    "ratio_cochain",
    "solve_scaling",
    "verify_urprior",
]


@dataclass(frozen=True)
class Violation:
    """Two agents disagree on a conditional over their shared outcomes."""

    pair: tuple[str, str]
    outcome: str
    conditional_left: Fraction
    conditional_right: Fraction


class Asymmetry(_Record):
    """A nonempty overlap that exactly one of the two agents weights positively.

    Such a pair passes the conditional check vacuously, yet no common
    prior can exist: it would have to give the overlap both zero and
    positive mass.
    """

    pair: tuple[str, str]
    overlap_mass_left: Fraction
    overlap_mass_right: Fraction


class CycleCertificate(_Record):
    """A closed cycle of agents whose edge-ratio product is not 1.

    The cycle starts at its smallest vertex and is traversed in the
    recorded order; ``holonomy`` is the product of overlap-mass ratios
    along that traversal and ``breaking_edge`` is the non-tree edge whose
    check failed.
    """

    cycle: tuple[str, ...]
    holonomy: Fraction
    breaking_edge: tuple[str, str]


Certificate = Violation | Asymmetry | CycleCertificate


class CompatibilityReport(_Record):
    """The pairwise scan: compatible when it found no violation and no asymmetry."""

    compatible: bool
    violations: tuple[Violation, ...]
    asymmetries: tuple[Asymmetry, ...]


class RatioCochain(_Record):
    """Multiplicative cochain of overlap-mass ratios on the 1-skeleton.

    Ratios must be ``int`` or ``Fraction`` values; a float, bool or string
    raises ValueError. The constructor checks every ratio and that the
    edges are exactly those of the complex.
    """

    complex: SimplicialComplex
    ratios: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        for e, v in self.ratios.items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(
                    f"ratio cochain: edge {e!r}: ratio {v!r} is not an int or a Fraction"
                )
        object.__setattr__(self, "ratios", {e: Fraction(v) for e, v in self.ratios.items()})
        if set(self.ratios) != set(self.complex.simplices(1)):
            raise ValueError("ratios must cover exactly the edges of the complex")
        if any(v.numerator <= 0 for v in self.ratios.values()):
            raise ValueError("edge ratios must be strictly positive")


class VerificationReport(_Record):
    """The check of a measure against every agent, with its diagnostic lines."""

    ok: bool
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class UrPriorResult:
    """Outcome of the decision: verdict, measure when it exists, certificate when not."""

    verdict: str
    measure: Mapping[str, Fraction] | None
    certificate: Certificate | None


class GluingError(RuntimeError):
    """Internal invariant failure while assembling the glued measure."""


def pairwise_compatibility(system: AgentSystem) -> CompatibilityReport:
    """Check every pair of agents on their shared outcomes.

    A pair is tested only when both sides give the overlap positive mass.
    With agent i's pmf written as n_x / d over its own denominator, the
    conditionals of the two sides agree at x exactly when
    n_x(left) * M(right) == n_x(right) * M(left), M being the sum of n_x
    over the overlap, read from the system's overlap table: an integer
    cross-multiplication. A pair where exactly one side weights the
    overlap is recorded as an asymmetry instead. Pairs come in canonical
    order from the overlap table, so pairs that share nothing cost
    nothing. The witness outcome of a violation is the alphabetically
    first failing one. A certificate's fractions are built only when it
    fires.
    """
    agents = system.agents
    violations: list[Violation] = []
    asymmetries: list[Asymmetry] = []
    for (i, j), (shared, sum_left, sum_right) in system.overlaps.items():
        left, right = agents[i], agents[j]
        if sum_left > 0 and sum_right > 0:
            counts_left, counts_right = left.counts[1], right.counts[1]
            # Both sides' conditionals sum to 1, so a disagreement shows at
            # two outcomes at least: the last outcome never comes first.
            for x in shared[:-1]:
                if counts_left[x] * sum_right != counts_right[x] * sum_left:
                    violations.append(
                        Violation(
                            (left.name, right.name),
                            x,
                            Fraction(counts_left[x], sum_left),
                            Fraction(counts_right[x], sum_right),
                        )
                    )
                    break
        elif sum_left > 0 or sum_right > 0:
            asymmetries.append(
                Asymmetry(
                    (left.name, right.name),
                    Fraction(sum_left, left.counts[0]),
                    Fraction(sum_right, right.counts[0]),
                )
            )
    return CompatibilityReport(not violations, tuple(violations), tuple(asymmetries))


def ratio_cochain(system: AgentSystem) -> RatioCochain:
    """Edge ratios r[i,j] = mass_i(overlap) / mass_j(overlap) on the system's overlap complex.

    The cochain lives on the edges of the overlap complex, exactly the
    pairs that both weight their overlap positively; no level above them
    is listed. The masses are read from the system's overlap table as M_i / d_i and
    M_j / d_j, so each ratio is one ``Fraction(M_i * d_j, M_j * d_i)``.
    """
    agents, overlaps = system.agents, system.overlaps
    X = build_overlap_complex(system)
    ratios: dict[tuple[int, int], Fraction] = {}
    for i, j in X.simplices(1):
        _, sum_i, sum_j = overlaps[(i, j)]
        ratios[(i, j)] = Fraction(sum_i * agents[j].counts[0], sum_j * agents[i].counts[0])
    return RatioCochain(X, ratios)


def solve_scaling(
    ratios: RatioCochain,
) -> tuple[dict[str, Fraction] | None, CycleCertificate | None]:
    """Find positive per-vertex scales with ratio[i,j] == scale[j] / scale[i] on ``ratios.complex``.

    Runs the forest propagation of ``decide_urprior`` on the ratios'
    (numerator, denominator) pairs, from scale 1 at the smallest vertex
    of each component. Exactly one element of the returned pair is not
    None: the scaling (keyed by vertex label) on success, a cycle
    certificate for the first failing non-tree edge otherwise.
    """
    X = ratios.complex
    pairs = {e: (r.numerator, r.denominator) for e, r in ratios.ratios.items()}
    units, cycle = _propagate(X, pairs)
    if cycle is not None:
        return None, cycle
    return {X.vertices[v]: Fraction(p, q) for v, (p, q) in enumerate(units)}, None


def _propagate(
    X: SimplicialComplex, edges: Mapping[tuple[int, int], tuple]
) -> tuple[list[tuple[int, int]] | None, CycleCertificate | None]:
    """Per-vertex units g_v as reduced pairs (p, q), or the first failing cycle.

    ``edges`` maps each edge (i, j), i < j, of X to a tuple ending in
    (a, b) with g_j / g_i == a / b. Over X's cached spanning forest each
    root gets (1, 1) (no cross-multiplication depends on it) and a tree
    step costs one gcd; every non-tree edge is then cross-multiplied, and
    the first that fails closes the cycle.
    """

    def step(u: int, v: int) -> tuple[int, int]:  # g_v / g_u
        t = edges[(u, v) if u < v else (v, u)]
        return (t[-2], t[-1]) if u < v else (t[-1], t[-2])

    forest = spanning_forest(X)
    units: list[tuple[int, int]] = [(1, 1)] * len(X.vertices)
    for v in forest.order:
        u = forest.parent.get(v)
        if u is None:
            continue
        (p, q), (a, b) = units[u], step(u, v)
        p, q = p * a, q * b
        k = gcd(p, q)
        units[v] = (p // k, q // k)

    for i, j in forest.non_tree:
        (p_i, q_i), (p_j, q_j), t = units[i], units[j], edges[(i, j)]
        if p_i * t[-2] * q_j == p_j * t[-1] * q_i:
            continue
        path = _forest_path(j, i, forest.parent)
        cycle = [i, j] + path[1:-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        num = den = 1
        for u, v in zip(cycle, cycle[1:] + [cycle[0]]):
            a, b = step(u, v)
            num, den = num * a, den * b
        labels = tuple(X.vertices[v] for v in cycle)
        return None, CycleCertificate(labels, Fraction(num, den), (X.vertices[i], X.vertices[j]))
    return units, None


def _forest_path(a: int, b: int, tree_parent: Mapping[int, int]) -> list[int]:
    """Vertex path from a to b inside the spanning forest (inclusive)."""

    def chain(v: int) -> list[int]:
        out = [v]
        while out[-1] in tree_parent:
            out.append(tree_parent[out[-1]])
        return out

    up_a = chain(a)
    up_b = chain(b)
    positions = {v: idx for idx, v in enumerate(up_a)}
    meet_b = next(idx for idx, v in enumerate(up_b) if v in positions)
    meet_a = positions[up_b[meet_b]]
    return up_a[: meet_a + 1] + list(reversed(up_b[:meet_b]))


def glue_urprior(system: AgentSystem, scaling: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Rescale each agent by its factor, merge, and normalize to total 1.

    Under the pipeline's preconditions (pairwise compatible, no overlap
    asymmetry, scaling solved) the rescaled masses agree wherever
    awareness sets meet. Each factor becomes the unit g_i = factor_i / d_i
    (``CredenceFunction.counts``), reduced once; a factor that is not a
    positive int or ``Fraction`` raises ValueError at its agent's turn.
    With the pmf as n_x / d_i, the agent's mass at x is g_i * n_x, taken
    at x's first agent and cross-multiplied against each later one; the
    first disagreement, in agent order, raises GluingError. ``_weigh``
    then puts the masses over one denominator.
    """
    units: list[tuple[int, int]] = []
    first: dict[str, tuple[int, int]] = {}  # outcome -> (its first agent, n_x)
    for a, agent in enumerate(system.agents):
        factor = scaling.get(agent.name)
        if isinstance(factor, bool) or not isinstance(factor, (int, Fraction)) or factor <= 0:
            raise ValueError(f"scaling must assign a positive factor to agent {agent.name}")
        p, q = factor.numerator, factor.denominator * agent.counts[0]
        k = gcd(p, q)
        p, q = p // k, q // k
        units.append((p, q))
        for outcome, n in agent.counts[1].items():
            held = first.get(outcome)
            if held is None:
                first[outcome] = (a, n)
                continue
            b, m = held
            p_first, q_first = units[b]
            # g_b * m == g_a * n, cross-multiplied
            if p_first * m * q != p * n * q_first:
                raise GluingError(
                    f"agents {system.agents[b].name} and {agent.name} assign different "
                    f"rescaled masses to {outcome!r}"
                )
    weights, total = _weigh(units, first)
    return {x: Fraction(weights[x], total) for x in system.space.outcomes if x in weights}


def _weigh(
    units: Sequence[tuple[int, int]], first: Mapping[str, tuple[int, int]]
) -> tuple[dict[str, int], int]:
    """W_x for each outcome x and their sum, the agents' rescaled masses being known to agree.

    ``first`` maps each outcome x to its first agent a, in agent order,
    and n_a(x), or to (0, 0) when every holder holds x at 0; W_x is
    g_a * n_a(x) times L, the lcm of the units' denominators.
    """
    L = lcm(*(q for _, q in units))
    scale = [p * (L // q) for p, q in units]
    weights = {x: scale[a] * n for x, (a, n) in first.items()}
    total = sum(weights.values())
    if total == 0:
        raise GluingError("glued measure has zero total mass")
    return weights, total


def verify_urprior(system: AgentSystem, measure: Mapping[str, Fraction]) -> VerificationReport:
    """Exact check that conditioning the measure recovers every agent.

    Verifies nonnegativity, total mass 1, no mass outside the union of
    awareness sets, and for every agent a positive sector mass with
    measure(x) == pmf(x) * sector for each aware outcome. One diagnostic
    line per agent.

    The measure is written over one common denominator D, w_x / D, for
    the integer check that ``decide_urprior`` runs on its glued weights.
    Masses must be ``int`` or ``Fraction`` values; a float, bool or string
    raises ValueError.
    """
    for x, v in measure.items():
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"measure: outcome {x!r}: mass {v!r} is not an int or a Fraction")
    D, w = common_denominator({x: (v.numerator, v.denominator) for x, v in measure.items()})
    return _verify(system, w, D)


def _verify(system: AgentSystem, w: Mapping[str, int], D: int) -> VerificationReport:
    """verify_urprior on w_x / D; with the pmf as n_x / d, x checks w_x * d == n_x * sector."""
    diagnostics: list[str] = []
    ok = True
    negatives = sorted(x for x, n in w.items() if n < 0)
    if negatives:
        ok = False
        diagnostics.append(f"negative mass on {negatives[0]!r}")
    total = sum(w.values())
    if total != D:
        ok = False
        diagnostics.append(f"total mass is {format_rational(Fraction(total, D))}, not 1")
    union = system.union_support()
    stray = sorted(x for x, n in w.items() if n != 0 and x not in union)
    if stray:
        ok = False
        diagnostics.append(f"positive mass outside every awareness set: {stray}")

    for agent in system.agents:
        d, counts = agent.counts
        sector = sum([w.get(x, 0) for x in counts])
        if sector == 0:
            ok = False
            diagnostics.append(f"agent {agent.name}: awareness set carries zero mass")
            continue
        if all(w.get(x, 0) * d == n * sector for x, n in counts.items()):
            diagnostics.append(f"agent {agent.name}: ok")
        else:  # name the first failing outcome in sorted order
            ok = False
            bad = min(x for x, n in counts.items() if w.get(x, 0) * d != n * sector)
            got = Fraction(w.get(bad, 0), sector)
            diagnostics.append(
                f"agent {agent.name}: conditional of {bad!r} is {format_rational(got)}, "
                f"expected {format_rational(agent.pmf[bad])}"
            )
    return VerificationReport(ok, tuple(diagnostics))


def decide_urprior(system: AgentSystem) -> UrPriorResult:
    """Decide whether a common prior exists, constructively.

    Obstructions are checked in order: a pairwise conditional violation,
    then a one-sided overlap, then an inconsistent ratio cycle. Each is a
    genuine blocker on its own. When none fires, the scaled credences
    glue into a measure, which is verified exactly before being returned.

    The decision is ``_decision``'s: a yes, read off star links, builds
    no pairwise overlap table and lists no simplex, and a no reads the
    edges of the overlap complex only. Either way the result is the one
    the system's pairwise report and overlap complex give.
    """
    return _result(system, _decision(system)[2])


# The glued measure W_x / T in integers: W_x for each outcome some agent holds, T their sum.
_Glued = tuple[dict[str, int], int]

# The pairwise report of every system that has a common prior.
_COMPATIBLE = CompatibilityReport(True, (), ())


def _decision(
    system: AgentSystem,
) -> tuple[CompatibilityReport, SimplicialComplex, Certificate | _Glued]:
    """The pairwise report, the overlap complex and the certificate or verified weights.

    Every yes is read off star links (``_star_units``), which never build
    the pairwise overlap table: the cost follows the number of (agent,
    outcome) entries, not the number of overlapping pairs. Where a common
    prior exists every pair is compatible and no overlap is one-sided, so
    the report is ``_COMPATIBLE``, and the complex is the one the
    weighting groups the star links were read from generate
    (``build_overlap_complex``); it lists nothing, and runs no collapse
    test, until something reads it. The star links are the
    cross-multiplications ``glue_urprior`` makes, so the weights come
    straight from ``_weigh``, and ``_verify`` re-checks them. When the
    star links decline, no common prior exists: the pairwise scan and the
    overlap complex find the certificate through ``_decide``, and are
    returned with it. ``decide_urprior`` and the CLI's ``check`` both
    decide here.
    """
    star = _star_units(system)
    if star is not None:
        units, first, groups = star
        weights, total = _weigh(units, first)
        check = _verify(system, weights, total)
        if not check.ok:
            raise GluingError("glued measure failed verification: " + "; ".join(check.diagnostics))
        return _COMPATIBLE, _generated(system.names, groups.values()), (weights, total)
    report = pairwise_compatibility(system)
    X = build_overlap_complex(system)
    return report, X, _decide(system, report, X)


def _star_units(
    system: AgentSystem,
) -> tuple[list[tuple[int, int]], dict[str, tuple[int, int]], dict[str, list[int]]] | None:
    """Every agent's unit g_i from star links, or None when no common prior exists.

    An outcome held at 0 by one agent and weighted by another declines at
    once (``_weighting_groups``); otherwise no overlap is one-sided. Each
    weighted outcome x links its first holder a, in agent order, to every
    later holder b, with g_b / g_a == n_a(x) / n_b(x) on the integer
    counts: the rescaled masses agree at x. Linking each holder to the
    first pins the same ratios as linking every pair, so the links connect
    exactly the components of the overlap complex. An outcome held only
    at 0 gets no link, and weight 0. Each component is walked
    breadth-first from its lowest agent at (1, d_root), the unit of
    ``solve_scaling``'s scale 1, one gcd per step. A link met with both
    ends already assigned is cross-multiplied there, once, and the first
    that fails returns None. When every link holds, all rescaled masses
    agree wherever agents meet, so no pair violates and no cycle fails;
    and a component's units are fixed by its root's, so they are the
    units the forest propagation gives. The links are those
    ``glue_urprior`` would cross-multiply again, so the units are
    returned with each outcome's first holder and n_x, for ``_weigh``,
    and with the groups (``_weighting_groups``).
    """
    groups = _weighting_groups(system)
    if groups is None:
        return None
    agents = system.agents
    first: dict[str, tuple[int, int]] = {}  # outcome -> (its first holder, n_x)
    adjacency: list[list[tuple[int, int, int, int]]] = [[] for _ in agents]
    links = 0
    for x, holders in groups.items():
        if not holders:  # held only at 0: weight 0, whichever agent stands first
            first[x] = (0, 0)
            continue
        a = holders[0]
        n_a = agents[a].counts[1][x]
        first[x] = (a, n_a)
        for b in holders[1:]:
            n_b = agents[b].counts[1][x]
            # (far end, then g_far / g_near as a pair, then the link)
            adjacency[a].append((b, n_a, n_b, links))
            adjacency[b].append((a, n_b, n_a, links))
            links += 1

    units: list[tuple[int, int] | None] = [None] * len(agents)
    met = [False] * links  # crossed by the walk, or cross-multiplied
    for root, agent in enumerate(agents):
        if units[root] is not None:
            continue
        units[root] = (1, agent.counts[0])
        walk = [root]
        for u in walk:  # breadth-first: the walk grows behind its reader
            p, q = units[u]
            for v, r, s, link in adjacency[u]:
                if met[link]:
                    continue
                met[link] = True
                unit = units[v]
                if unit is None:
                    p_v, q_v = p * r, q * s
                    k = gcd(p_v, q_v)
                    units[v] = (p_v // k, q_v // k)
                    walk.append(v)
                elif unit[0] * s * q != p * r * unit[1]:  # g_v / g_u != r / s
                    return None
    return units, first, groups


def _decide(system: AgentSystem, report: CompatibilityReport, X: SimplicialComplex) -> Certificate:
    """The first obstruction of a system the star links decline: its certificate.

    Only the edges of ``X``, the overlap complex, are read; the units
    step as g_j / g_i == M_i / M_j on the overlap sums of
    ``system.overlaps``. Finding no obstruction means an internal invariant
    broke, since a declined system has no common prior: GluingError.
    """
    if report.violations:
        return report.violations[0]
    if report.asymmetries:
        return report.asymmetries[0]
    _, cycle = _propagate(X, system.overlaps)
    if cycle is None:
        raise GluingError("the star links declined, but no pair, overlap or cycle obstructs")
    return cycle


def _result(system: AgentSystem, found: Certificate | _Glued) -> UrPriorResult:
    """The result of a decision: its certificate, or the measure W_x / T in outcome order."""
    if not isinstance(found, tuple):
        return UrPriorResult("none", None, found)
    weights, total = found
    measure = {x: Fraction(weights[x], total) for x in system.space.outcomes if x in weights}
    return UrPriorResult("exists", measure, None)
