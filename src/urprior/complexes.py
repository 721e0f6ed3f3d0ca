"""Simplicial complexes from agent overlaps or explicit facet lists.

A complex stores, per dimension, the lexicographically sorted tuples of
vertex indices. For overlap complexes the index order is the agent order
of the system, which fixes every orientation downstream. A complex is
immutable, so what it derives is built once, on first use, and cached on
it: each level, the collapse test below, and the spanning forest, which
the components, the scaling solve, rank delta_0 and the degree-1
cohomology all read.

A complex is built one of two ways. The public constructor
``SimplicialComplex(...)`` is the path for input from outside the
program: it checks every rule (unique labels, levels sorted and unique,
simplices strictly increasing over valid indices, every vertex a
0-simplex, no trailing empty level, the complex closed downward).
``from_facets`` and ``build_overlap_complex`` build their levels sorted,
unique and closed by construction, so they return through
``SimplicialComplex._canonical``, which checks nothing again.

Such a complex keeps what it was generated from and lists level k the
first time something reads level k (``simplices``): a family of vertex
sets (the facets; the groups of agents that weight one outcome), read
through its ``_tails``, or, on a system with a sign-split edge, the
edges, each level above joined from the one below and tested against
the definition of the overlap complex. ``by_dim`` reads every level.
Whichever levels were read, every answer is the whole complex's.

A complex that a family generates may collapse, a vertex-elimination
argument in the spirit of Mrozek and Batko's coreductions ("Coreduction
homology algorithm", DCG 2009). Let B_i be the vertices above i that
share a set with i. Suppose that for every i one set's members above i
hold all of B_i. Then {i} + B_i is a simplex, and the simplices with
lowest vertex i are exactly {i} + S for the subsets S of B_i. Deleting
the vertices in increasing order therefore removes each one along a full
simplex, its link in what is left, or as an isolated point when B_i is
empty. So the complex is homotopy-equivalent to the points with B_i
empty: it has that many components, H^k = 0 for every k >= 1, and
X_k = sum_i C(|B_i|, k). Such a complex is counted, not listed: it keeps
the sizes |B_i| (``_links``), ``count`` and ``dim`` read them, and
``urprior.cohomology`` reads its ranks off its counts, so no simplex is
listed and no spanning forest is built unless something asks for them.
The test is the per-vertex pass the listing reads too (``_tails``), so a
complex that fails it at some vertex is listed with no pass repeated.
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
    "Simplex",
    "SimplicialComplex",
    "SpanningForest",
    "build_overlap_complex",
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
        self.__dict__.update(_levels=[*self.by_dim, ()], _source=None)

    @classmethod
    def _canonical(
        cls,
        vertices: tuple[str, ...],
        levels: tuple[tuple[Simplex, ...], ...],
        source: Callable[[], tuple[list[_Tails], Callable[[Simplex], bool] | None]] | None = None,
    ) -> SimplicialComplex:
        """A complex from levels the caller guarantees canonical, built without checks.

        The caller guarantees every rule ``__post_init__`` checks: tuples
        throughout, unique vertex labels, every level sorted and unique,
        each simplex strictly increasing over valid indices, every vertex
        a 0-simplex, no trailing empty level, and the family closed
        downward. Without ``source`` the levels are the whole complex.
        With it they are its lowest levels, and ``source()`` returns what
        the levels above are listed from (see ``_grow``); it runs when
        one of them, or the collapse test, is first read.
        """
        X = object.__new__(cls)
        # a complete listing ends in an empty level
        listed = [*levels] if source else [*levels, ()]
        X.__dict__.update(vertices=vertices, _levels=listed, _source=source)
        return X

    @cached_property
    def by_dim(self) -> tuple[tuple[Simplex, ...], ...]:
        # every level, listed; the public constructor's field shadows this
        k = 0
        while self.simplices(k):
            k += 1
        return tuple(self._levels[:k])

    @property
    def dim(self) -> int:
        links = self._links
        return len(self.by_dim) - 1 if links is None else max(links, default=-1)

    def simplices(self, k: int) -> tuple[Simplex, ...]:
        """The k-simplices in canonical order, listed the first time level k is read."""
        levels = self._levels
        while len(levels) <= k and levels[-1]:
            levels.append(self._grow(len(levels)))
        return levels[k] if 0 <= k < len(levels) else ()

    def count(self, k: int) -> int:
        """The number of k-simplices; X_k = sum_i C(|B_i|, k) when the complex collapses."""
        links = self._links
        if links is None:
            return len(self.simplices(k))
        return sum([comb(b, k) for b in links])

    def counts(self, upto: int | None = None) -> list[int]:
        """Simplex counts per dimension, zero-padded through ``upto``."""
        top = self.dim if upto is None else upto
        return [self.count(k) for k in range(top + 1)]

    @cached_property
    def _family(self) -> tuple[list[_Tails], Callable[[Simplex], bool] | None]:
        # (the family's _tails, None), or ([], keep) on a system with a sign-split edge
        return self._source()

    @cached_property
    def _links(self) -> list[int] | None:
        """|B_i| for every vertex i when the complex collapses (see the module notes), else None.

        It collapses when its family keeps one tail at every vertex.
        """
        if self._source is None:
            return None
        tails, keep = self._family
        if keep is not None or any(len(mine) > 1 for _, _, mine in tails):
            return None
        links = [0] * len(self.vertices)
        for i, size, _ in tails:
            links[i] = size
        return links

    def _grow(self, k: int) -> tuple[Simplex, ...]:
        """Level k, listed from what the complex was generated from; level k - 1 is listed.

        From a family: for each lowest vertex i in order, ``(i,) +`` the
        sorted k-subsets of i's tails, canonical order by construction,
        with no facet test and no set but one per vertex and level, and
        none when one tail holds all the others, whose combinations are
        then taken alone.

        From ``keep`` (closed downward, and level k - 1 exactly its
        simplices of that dimension): each two simplices of level k - 1
        that differ only in their last vertex are joined, and the joins
        ``keep`` accepts are listed. Both of those faces of a simplex are
        accepted, so none is missed, and the joins come in canonical
        order; the work follows the level below, not the size of the
        groups a simplex could lie in.
        """
        tails, keep = self._family
        level: list[Simplex] = []
        if keep is not None:
            for head, faces in groupby(self._levels[k - 1], key=lambda s: s[:-1]):
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
        return tuple(level)

    @cached_property
    def _forest(self) -> SpanningForest:
        # read through spanning_forest(X)
        return _build_forest(self)

    def label(self, simplex: Simplex) -> str:
        return "{" + ",".join(self.vertices[i] for i in simplex) + "}"


def from_facets(vertices: Sequence[str], facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Smallest downward-closed complex containing the facets and all vertices."""
    return _generated(*_facet_groups(vertices, facets))


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


def _generated(names: tuple[str, ...], groups: Iterable[Sequence[int]]) -> SimplicialComplex:
    """The complex a family of sorted vertex sets generates, its levels listed when read."""
    n = len(names)
    vertices = tuple((i,) for i in range(n))
    return SimplicialComplex._canonical(names, (vertices,), lambda: (_tails(n, groups), None))


def build_overlap_complex(system: AgentSystem) -> SimplicialComplex:
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
    not), so every violation-free system has none.

    The edges are the pairs of the system's overlap table that both sides
    weight, read from the table when the system has one (something has
    read ``system.overlaps``) or when some outcome is held at 0 by one
    agent and weighted by another. Only the edges are read then, and the
    levels above come from ``_overlap_family`` when first read. Otherwise
    every holder of a weighted outcome weights it (``_weighting_groups``):
    no edge is split, and the complex is the one the A_x generate, edges
    included, without the table. An outcome held only at 0 joins no
    group.
    """
    if "overlaps" not in vars(system) and (groups := _weighting_groups(system)) is not None:
        return _generated(system.names, groups.values())
    overlaps = system.overlaps
    edges = tuple(pair for pair, (_, sum_i, sum_j) in overlaps.items() if sum_i > 0 and sum_j > 0)
    vertices = tuple((i,) for i in range(len(system.agents)))
    return SimplicialComplex._canonical(
        system.names, (vertices, edges), lambda: _overlap_family(system)
    )


def _overlap_family(
    system: AgentSystem,
) -> tuple[list[_Tails], Callable[[Simplex], bool] | None]:
    """What the levels of a system's overlap complex above its edges are listed from.

    One index pass lists each A_x and the agents aware of x without
    weighting it; a split edge is a (weighting, non-weighting) pair of
    one outcome's holders that is an edge. With none, the ``_tails`` of
    the A_x; with one, the test against the definition, each candidate
    joined from the level below (see ``SimplicialComplex._grow``).
    """
    agents, overlaps = system.agents, system.overlaps
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

        return [], keep
    return _tails(len(agents), weighting.values()), None


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
# Per vertex: (the vertex, the size of its largest tail, its tails).
_Tails = tuple[int, int, list[_Tail]]


def _tails(n: int, groups: Iterable[Sequence[int]]) -> list[_Tails]:
    """Per vertex i of 0 .. n - 1: (i, the size of its largest tail, its tails).

    Only nonempty tails are kept, and a vertex with none is left out.
    When the largest tail holds every other, it is kept alone: the
    collapse test of the module notes. A tail is never sliced. Whether
    set h's tail lies in set g is tested from h's top down, and how far
    down it is known to lie in g is kept per pair, so each pair of sets
    that meet is walked once, not once per vertex they share: two
    outcomes that every agent of a hub holds cost one walk.
    """
    tails: list[list[_Tail]] = [[] for _ in range(n)]
    for s in groups:
        for p in range(len(s) - 1):
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

