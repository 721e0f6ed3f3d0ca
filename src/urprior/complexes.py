"""Simplicial complexes from agent overlaps or explicit facet lists.

A complex stores, per dimension, the lexicographically sorted tuples of
vertex indices. For overlap complexes the index order is the agent order
of the system, which fixes every orientation downstream. A complex is
immutable, so its spanning forest is built once, on first use, and
cached on it: the components, the scaling solve, rank delta_0 and the
degree-1 cohomology all read that one forest.

A complex is built one of two ways. The public constructor
``SimplicialComplex(...)`` is the path for input from outside the
program: it checks every rule (unique labels, levels sorted and unique,
simplices strictly increasing over valid indices, every vertex a
0-simplex, no trailing empty level, the complex closed downward).
``from_facets`` and ``build_overlap_complex`` build their levels sorted,
unique and closed by construction, so they return through
``SimplicialComplex._canonical``, which checks nothing again.

A complex file and an overlap complex are both listed by one routine,
``_generated``: from a family of vertex sets (the facets; the groups of
agents that weight one outcome), or, on a system with a sign-split edge,
from the edges up, each level from the one below, tested against the
definition of the overlap complex.

A complex that a family generates is counted instead of listed when it
collapses (``_counted``), a vertex-elimination argument in the spirit of
Mrozek and Batko's coreductions ("Coreduction homology algorithm", DCG
2009). Let B_i be the vertices above i that share a set with i. Suppose
that for every i one set's members above i hold all of B_i. Then
{i} + B_i is a simplex, and the simplices with lowest vertex i are
exactly {i} + S for the subsets S of B_i. Deleting the vertices in
increasing order therefore removes each one along a full simplex, its
link in what is left, or as an isolated point when B_i is empty. So the
complex is homotopy-equivalent to the points with B_i empty: it has that
many components, H^k = 0 for every k >= 1, and X_k = sum_i C(|B_i|, k).
A ``Collapsible`` keeps only the sizes |B_i|, so no simplex is listed
and no spanning forest is built. The test is the per-vertex pass that
``_generated`` reads too (``_tails``), so a complex that fails it at
some vertex is listed with no pass repeated.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations, groupby
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from urprior.credence import AgentSystem, _Record

Simplex = tuple[int, ...]

__all__ = [
    "Collapsible",
    "Simplex",
    "SimplicialComplex",
    "SpanningForest",
    "build_overlap_complex",
    "connected_components",
    "from_facets",
    "spanning_forest",
]


class SimplicialComplex(_Record):
    """Finite abstract simplicial complex on labeled, ordered vertices."""

    vertices: tuple[str, ...]
    by_dim: tuple[tuple[Simplex, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "by_dim", tuple(tuple(level) for level in self.by_dim))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        n = len(self.vertices)
        for k, level in enumerate(self.by_dim):
            for s in level:
                if len(s) != k + 1:
                    raise ValueError(f"{s} listed at dimension {k}")
                if any(not isinstance(i, int) or not 0 <= i < n for i in s):
                    raise ValueError(f"simplex {s} uses an invalid vertex index")
                if any(s[a] >= s[a + 1] for a in range(len(s) - 1)):
                    raise ValueError(f"simplex {s} is not strictly increasing")
            if list(level) != sorted(set(level)):
                raise ValueError(f"dimension {k} is not in canonical sorted order")
        if self.by_dim:
            if set(self.by_dim[0]) != {(i,) for i in range(n)}:
                raise ValueError("every vertex must appear as a 0-simplex")
            if not self.by_dim[-1]:
                raise ValueError("trailing empty dimension; trim before constructing")
        elif n:
            raise ValueError("every vertex must appear as a 0-simplex")
        for k in range(1, len(self.by_dim)):
            lower = set(self.by_dim[k - 1])
            for s in self.by_dim[k]:
                for face in combinations(s, k):
                    if face not in lower:
                        raise ValueError(f"missing face {face} of {s}: complex is not closed downward")

    @classmethod
    def _canonical(
        cls, vertices: tuple[str, ...], by_dim: tuple[tuple[Simplex, ...], ...]
    ) -> SimplicialComplex:
        """A complex from levels the caller guarantees canonical, built without checks.

        The caller guarantees every rule ``__post_init__`` checks: tuples
        throughout, unique vertex labels, every level sorted and unique,
        each simplex strictly increasing over valid indices, every vertex
        a 0-simplex, no trailing empty level, and the family closed
        downward.
        """
        X = object.__new__(cls)
        object.__setattr__(X, "vertices", vertices)
        object.__setattr__(X, "by_dim", by_dim)
        return X

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    def simplices(self, k: int) -> tuple[Simplex, ...]:
        if 0 <= k < len(self.by_dim):
            return self.by_dim[k]
        return ()

    def count(self, k: int) -> int:
        """The number of k-simplices."""
        return len(self.simplices(k))

    def counts(self, upto: int | None = None) -> list[int]:
        """Simplex counts per dimension, zero-padded through ``upto``."""
        top = self.dim if upto is None else upto
        return [self.count(k) for k in range(top + 1)]

    @cached_property
    def _forest(self) -> SpanningForest:
        # read through spanning_forest(X)
        return _build_forest(self)

    def label(self, simplex: Simplex) -> str:
        return "{" + ",".join(self.vertices[i] for i in simplex) + "}"


def from_facets(vertices: Sequence[str], facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Smallest downward-closed complex containing the facets and all vertices."""
    verts, groups = _facet_groups(vertices, facets)
    if not verts:
        return SimplicialComplex._canonical((), ())
    n = len(verts)
    return _generated(verts, (tuple((i,) for i in range(n)),), _tails(n, groups, 1), None)


def _facet_groups(
    vertices: Sequence[str], facets: Iterable[Iterable[str]]
) -> tuple[tuple[str, ...], list[list[int]]]:
    """The vertex labels and each facet as a sorted set of indices; ValueError on a rule break."""
    verts = tuple(vertices)
    index = {label: i for i, label in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("vertex labels must be unique")
    groups: list[list[int]] = []
    for facet in facets:
        labels = list(facet)
        if not labels:
            raise ValueError("facets must be nonempty")
        unknown = [x for x in labels if x not in index]
        if unknown:
            raise ValueError(f"facet mentions unknown vertex {unknown[0]!r}")
        groups.append(sorted({index[x] for x in labels}))
    return verts, groups


def build_overlap_complex(system: AgentSystem, max_dim: int | None = None) -> SimplicialComplex:
    """The complex of agent groups whose joint overlap every member weights.

    A group J is a simplex exactly when each member assigns positive mass
    to the intersection of all awareness sets of J.

    The lowest member i of a simplex J weights some outcome x of the
    joint overlap, and each other member j holds x. On a system with no
    sign-split edge, an edge (i, j) on whose shared outcomes the two
    agents disagree about which carry mass (``positive[i] & support[j] !=
    positive[j] & support[i]``), j then weights x too, since (i, j) is an
    edge, so J lies in the set A_x of agents weighting x: the complex is
    the one the A_x generate. A split edge is always a pairwise violation
    (at the outcome in dispute one conditional is 0 and the other is
    not), so every violation-free system has none. One index pass lists
    each A_x and the agents aware of x without weighting it; a split edge
    is a (weighting, non-weighting) pair of one outcome's holders that is
    an edge. A system with one is listed from its edges up, each
    candidate tested against the definition.

    The edges are the pairs of the system's overlap table that both sides
    weight, read from the table when the system has one (something has
    read ``system.overlaps``) or when some outcome is held at 0 by one
    agent and weighted by another. Otherwise every holder of a weighted
    outcome weights it (``_weighting_groups``): no edge is split, and the
    edges, the pairs that share a weighted outcome, are listed from the
    A_x like the levels above, without the table. An outcome held only
    at 0 joins no group.
    """
    agents = system.agents
    n = len(agents)
    vertices: tuple[Simplex, ...] = tuple((i,) for i in range(n))
    if max_dim is not None and max_dim < 1:
        return SimplicialComplex._canonical(system.names, (vertices,))
    if "overlaps" not in vars(system) and (groups := _weighting_groups(system)) is not None:
        return _generated(system.names, (vertices,), _tails(n, groups.values(), 1), max_dim)

    overlaps = system.overlaps
    edges = tuple(pair for pair, (_, sum_i, sum_j) in overlaps.items() if sum_i > 0 and sum_j > 0)
    if not edges:
        return SimplicialComplex._canonical(system.names, (vertices,))
    if max_dim == 1:
        return SimplicialComplex._canonical(system.names, (vertices, edges))

    weighting: dict[str, list[int]] = {}
    unweighting: dict[str, list[int]] = {}
    for i, agent in enumerate(agents):
        for x, c in agent.counts[1].items():
            (weighting if c > 0 else unweighting).setdefault(x, []).append(i)
    if any(
        min(overlaps[(i, j) if i < j else (j, i)][1:]) > 0
        for x, zeros in unweighting.items()
        for i in weighting.get(x, ())
        for j in zeros
    ):
        supports = [agent.support for agent in agents]
        positives = [agent.positive for agent in agents]

        def keep(J: Simplex) -> bool:
            shared = frozenset.intersection(*(supports[j] for j in J))
            return all(not shared.isdisjoint(positives[j]) for j in J)

        return _generated(system.names, (vertices, edges), (), max_dim, keep)

    return _generated(system.names, (vertices, edges), _tails(n, weighting.values(), 2), max_dim)


def _weighting_groups(system: AgentSystem) -> dict[str, list[int]] | None:
    """Each outcome an agent holds, mapped to the agents that weight it, in order; or None.

    None when some outcome is held at 0 by one agent and weighted by
    another, a pairwise violation or a one-sided overlap. An outcome held
    only at 0 maps to no agent.
    """
    groups: dict[str, list[int]] = {}
    zeros: list[str] = []
    for i, agent in enumerate(system.agents):
        for x, c in agent.counts[1].items():
            holders = groups.get(x)
            if holders is None:
                holders = groups[x] = []
            if c:
                holders.append(i)
            else:
                zeros.append(x)
    if any(groups[x] for x in zeros):
        return None
    return groups


# Vertex i's tail in a sorted vertex set s, s[p] == i: (s, p), standing for s[p + 1 :].
_Tail = tuple[Sequence[int], int]


def _tails(
    n: int, groups: Iterable[Sequence[int]], k: int
) -> list[tuple[int, int, list[_Tail]]]:
    """Per vertex i of 0 .. n - 1: (i, the size of its largest tail, its tails).

    Only tails of at least k members are kept, and a vertex with none is
    left out. When the largest tail holds every other, it is kept alone:
    the collapse test of the module notes, at k = 1. A tail is never
    sliced. Whether set h's tail lies in set g is tested from h's top
    down, and how far down it is known to lie in g is kept per pair, so
    each pair of sets that meet is walked once, not once per vertex they
    share: two outcomes that every agent of a hub holds cost one walk.
    """
    tails: list[list[_Tail]] = [[] for _ in range(n)]
    for s in groups:
        for p in range(len(s) - k):
            tails[s[p]].append((s, p))
    inside: dict[tuple[int, int], int] = {}  # (id(h), id(g)) -> r with h[r:] known inside g
    members: dict[int, set[int]] = {}
    out = []
    for i, mine in enumerate(tails):
        if not mine:
            continue
        g, p = max(mine, key=lambda t: len(t[0]) - t[1])
        if len(mine) > 1:
            in_g = members.get(id(g))
            if in_g is None:
                in_g = members[id(g)] = set(g)
            for h, q in mine:
                if h is g:
                    continue
                r = inside.get((id(h), id(g)), len(h))
                while r > q + 1 and h[r - 1] in in_g:
                    r -= 1
                inside[id(h), id(g)] = r
                if r > q + 1:
                    break
            else:
                mine = [(g, p)]
        out.append((i, len(g) - p - 1, mine))
    return out


def _generated(
    names: tuple[str, ...],
    levels: tuple[tuple[Simplex, ...], ...],
    tails: Sequence[tuple[int, int, Sequence[_Tail]]],
    max_dim: int | None,
    keep: Callable[[Simplex], bool] | None = None,
) -> SimplicialComplex:
    """``levels`` extended, through ``max_dim``, up to the first empty level.

    Without ``keep``, the new levels are those of the complex a family of
    vertex sets generates, read from its ``_tails`` of at least as many
    members as ``levels`` has levels. Level k lists, for each lowest
    vertex i in order, ``(i,) +`` the sorted k-subsets of i's tails:
    canonical order by construction, with no facet test and no set but
    one per vertex and level, and none when one tail holds all the
    others, whose combinations are then taken alone.

    With ``keep`` (closed downward, and the last given level exactly its
    simplices of that dimension), ``tails`` is not read: level k joins
    each two simplices of level k - 1 that differ only in their last
    vertex and lists the joins ``keep`` accepts. Both of those faces of a
    simplex are accepted, so none is missed, and the joins come in
    canonical order; the work follows the level below, not the size of
    the groups a simplex could lie in.
    """
    k = len(levels)
    found = list(levels)
    while max_dim is None or k <= max_dim:
        level: list[Simplex] = []
        if keep is not None:
            for head, faces in groupby(found[-1], key=lambda s: s[:-1]):
                pairs = combinations([s[-1] for s in faces], 2)
                level.extend(filter(keep, (head + pair for pair in pairs)))
        for i, size, mine in tails:
            if size < k:
                continue
            if len(mine) == 1:
                s, p = mine[0]
                subsets: Iterable[Simplex] = combinations(s[p + 1 :], k)
            else:
                subsets = sorted(set().union(*(combinations(s[p + 1 :], k) for s, p in mine)))
            level.extend(map((i,).__add__, subsets))
        if not level:
            break
        found.append(tuple(level))
        k += 1
    return SimplicialComplex._canonical(names, tuple(found))


class Collapsible(_Record):
    """A complex that collapses onto its vertices with no upper link, counted, not listed.

    ``links[i]`` is |B_i|, the number of vertices above i that share a
    generating set with i (see the module notes). ``dim`` is the
    complex's dimension, or the depth it was counted to when that is
    lower: ``counts()`` stops there, as a listing to that depth would.
    """

    vertices: tuple[str, ...]
    links: tuple[int, ...]
    dim: int

    def count(self, k: int) -> int:
        """The number of k-simplices, X_k = sum_i C(|B_i|, k), at any depth."""
        return sum([comb(b, k) for b in self.links])

    def counts(self, upto: int | None = None) -> list[int]:
        """Simplex counts per dimension, X_k, through ``upto`` or ``dim``."""
        top = self.dim if upto is None else upto
        return [self.count(k) for k in range(top + 1)]


def _counted(
    names: tuple[str, ...], groups: Iterable[Sequence[int]], max_dim: int | None
) -> SimplicialComplex | Collapsible:
    """The complex a family of sorted vertex sets generates, counted when it collapses, else listed.

    It collapses when every vertex keeps one tail (see the module notes).
    Otherwise it is listed through ``max_dim`` from the tails the test
    found.
    """
    n = len(names)
    tails = _tails(n, groups, 1)
    if any(len(mine) > 1 for _, _, mine in tails):
        return _generated(names, (tuple((i,) for i in range(n)),), tails, max_dim)
    links = [0] * n
    for i, size, _ in tails:
        links[i] = size
    top = max(links, default=-1)
    return Collapsible(names, tuple(links), top if max_dim is None else min(top, max_dim))


class SpanningForest(_Record):
    """A breadth-first spanning forest of a complex's 1-skeleton.

    Edges are offered to a union-find in canonical order; an edge that
    joins two trees is a tree edge, one that closes a cycle is listed in
    ``non_tree`` (canonical order). Each component is then walked
    breadth-first from its smallest vertex, neighbours in increasing
    order: ``order`` lists every vertex in walk order, components one
    after another by their smallest vertex, and ``parent`` maps each
    non-root vertex to its tree neighbour one step nearer the root.
    """

    order: tuple[int, ...]
    parent: Mapping[int, int]
    non_tree: tuple[Simplex, ...]


def spanning_forest(X: SimplicialComplex) -> SpanningForest:
    """The breadth-first spanning forest of X's 1-skeleton (see SpanningForest).

    Built once per complex and cached on it, so every call returns the
    same object.
    """
    return X._forest


def _build_forest(X: SimplicialComplex) -> SpanningForest:
    n = len(X.vertices)
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    adjacency: list[list[int]] = [[] for _ in range(n)]
    non_tree: list[Simplex] = []
    for i, j in X.simplices(1):
        ri, rj = find(i), find(j)
        if ri == rj:
            non_tree.append((i, j))
        else:
            root[rj] = ri
            adjacency[i].append(j)
            adjacency[j].append(i)

    # edges come in canonical order, so each adjacency list is increasing
    order: list[int] = []
    parent: dict[int, int] = {}
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(v)
    return SpanningForest(tuple(order), parent, tuple(non_tree))


def connected_components(X: SimplicialComplex) -> list[tuple[int, ...]]:
    """Vertex sets of the 1-skeleton's components, each sorted, ordered by minimum."""
    forest = spanning_forest(X)
    components: list[list[int]] = []
    for v in forest.order:
        if v not in forest.parent:
            components.append([])
        components[-1].append(v)
    return [tuple(sorted(c)) for c in components]
