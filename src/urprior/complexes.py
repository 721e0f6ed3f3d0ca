"""Simplicial complexes from agent overlaps or explicit facet lists.

A complex stores, per dimension, the lexicographically sorted tuples of
vertex indices. For overlap complexes the index order is the agent order
of the system, which fixes every orientation downstream. A coboundary
map exists only as sparse integer columns (``coboundary_columns``); no
dense matrix is built, not even for display. A complex is immutable, so
its spanning forest is built once, on first use, and cached on it: the
components, the scaling solve, rank delta_0 and the degree-1 cohomology
all read that one forest.

A complex is built one of two ways. The public constructor
``SimplicialComplex(...)`` is the path for input from outside the
program: it checks every rule (unique labels, levels sorted and unique,
simplices strictly increasing over valid indices, every vertex a
0-simplex, no trailing empty level, the complex closed downward).
``from_facets`` and ``build_overlap_complex`` build their levels sorted,
unique and closed by construction, so they return through
``SimplicialComplex._canonical``, which checks nothing again.

A complex file and an overlap complex are both the complex generated by
a family of vertex sets (the facets; the groups of agents that weight
one outcome), and one routine, ``_generated``, lists both. Only the
overlap complex of a system with a sign-split edge is listed another
way, level by level.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

from urprior.credence import AgentSystem
from urprior.numerics import Column

Simplex = tuple[int, ...]

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "SpanningForest",
    "build_overlap_complex",
    "coboundary_columns",
    "connected_components",
    "from_facets",
    "spanning_forest",
]


@dataclass(frozen=True)
class SimplicialComplex:
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

    def counts(self, upto: int | None = None) -> list[int]:
        """Simplex counts per dimension, zero-padded through ``upto``."""
        top = self.dim if upto is None else upto
        return [len(self.simplices(k)) for k in range(top + 1)]

    @cached_property
    def _forest(self) -> SpanningForest:
        # read through spanning_forest(X)
        return _build_forest(self)

    def label(self, simplex: Simplex) -> str:
        return "{" + ",".join(self.vertices[i] for i in simplex) + "}"


def from_facets(vertices: Sequence[str], facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Smallest downward-closed complex containing the facets and all vertices."""
    verts = tuple(vertices)
    index = {label: i for i, label in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("vertex labels must be unique")
    above: list[list[Simplex]] = [[] for _ in verts]
    for facet in facets:
        labels = list(facet)
        if not labels:
            raise ValueError("facets must be nonempty")
        unknown = [x for x in labels if x not in index]
        if unknown:
            raise ValueError(f"facet mentions unknown vertex {unknown[0]!r}")
        idxs = sorted({index[x] for x in labels})
        for p in range(len(idxs) - 1):
            above[idxs[p]].append(tuple(idxs[p + 1 :]))
    if not verts:
        return SimplicialComplex._canonical((), ())
    return _generated(verts, (tuple((i,) for i in range(len(verts))),), above, None)


def build_overlap_complex(system: AgentSystem, max_dim: int | None = None) -> SimplicialComplex:
    """The complex of agent groups whose joint overlap every member weights.

    A group J is a simplex exactly when each member assigns positive mass
    to the intersection of all awareness sets of J. The edges are the
    pairs of the system's overlap table that both sides weight; with
    ``max_dim == 1`` the complex stops there, before anything below runs.

    Let A_x be the agents that give outcome x positive mass. Every subset
    of an A_x is a simplex: x lies in the group's joint overlap and every
    member weights it. The converse holds on a system with no sign-split
    edge, an edge (i, j) on whose shared outcomes the two agents disagree
    about which carry mass (``positive[i] & support[j] != positive[j] &
    support[i]``). If J is a simplex, its lowest member i weights some x
    of the joint overlap; each other member j shares x with i, and (i, j)
    is an edge, so j weights x too, and J lies in A_x. Such a complex is
    therefore exactly the one generated by the A_x. A split edge is always
    a pairwise violation (at the outcome in dispute one conditional is 0
    and the other is not), so every violation-free system has none.

    One index pass lists each A_x and the agents aware of x without
    weighting it; a split edge is a (weighting, non-weighting) pair of one
    outcome's holders that is an edge. Without one, the levels above the
    edges are those of the complex the A_x generate, listed by
    ``_generated`` as the levels of ``from_facets`` are. A system with a
    split edge is enumerated level by level instead: a simplex s is
    extended only by neighbours of s[0] above s[-1], and only when all
    facets of the extension survived the previous level, the extension's
    overlap tested against each member's positive outcomes.
    """
    agents = system.agents
    n = len(agents)
    vertices: tuple[Simplex, ...] = tuple((i,) for i in range(n))
    overlaps = system.overlaps
    edges = tuple(pair for pair, (_, sum_i, sum_j) in overlaps.items() if sum_i > 0 and sum_j > 0)
    if (max_dim is not None and max_dim < 1) or not edges:
        return SimplicialComplex._canonical(system.names, (vertices,))
    if max_dim == 1:
        return SimplicialComplex._canonical(system.names, (vertices, edges))

    weighting: dict[str, list[int]] = {}
    unweighting: dict[str, list[int]] = {}
    for i, agent in enumerate(agents):
        for x, c in agent.counts[1].items():
            (weighting if c > 0 else unweighting).setdefault(x, []).append(i)
    for x, zeros in unweighting.items():
        for i in weighting.get(x, ()):
            for j in zeros:
                _, sum_lo, sum_hi = overlaps[(i, j) if i < j else (j, i)]
                if sum_lo > 0 and sum_hi > 0:
                    return _overlap_complex_by_levels(system, edges, max_dim)

    above: list[list[Simplex]] = [[] for _ in agents]
    for i, agent in enumerate(agents):
        for x in agent.positive:
            members = weighting[x]
            above[i].append(tuple(members[bisect_right(members, i) :]))
    return _generated(system.names, (vertices, edges), above, max_dim)


def _generated(
    names: tuple[str, ...],
    levels: tuple[tuple[Simplex, ...], ...],
    above: Sequence[Iterable[Simplex]],
    max_dim: int | None,
) -> SimplicialComplex:
    """``levels`` extended, through ``max_dim``, by the complex a family of vertex sets generates.

    ``above[i]`` holds, for each generating set that contains vertex i,
    its members above i, sorted; sets too small to reach the first new
    level are ignored. Level k lists, for each lowest vertex i in order,
    ``(i,) +`` the sorted k-subsets of those sets: canonical order by
    construction, with no facet test and no set but one per vertex and
    level, and none when one set holds all the others, whose
    combinations are then taken alone.
    """
    start = len(levels)
    new: list[list[Simplex]] = []
    for i, sets in enumerate(above):
        mine = {t for t in sets if len(t) >= start}
        if not mine:
            continue
        big = max(mine, key=len)
        if len(mine) > 1 and set(big).issuperset(chain.from_iterable(mine)):
            mine = {big}
        top = len(big) if max_dim is None else min(len(big), max_dim)
        for k in range(start, top + 1):
            if len(mine) == 1:
                tails: Iterable[Simplex] = combinations(big, k)
            else:
                tails = sorted(set().union(*(combinations(t, k) for t in mine)))
            if len(new) == k - start:
                new.append([])
            new[k - start].extend(map((i,).__add__, tails))
    return SimplicialComplex._canonical(names, (*levels, *map(tuple, new)))


def _overlap_complex_by_levels(
    system: AgentSystem, edges: tuple[Simplex, ...], max_dim: int | None
) -> SimplicialComplex:
    """The overlap complex above its edges, one level from the last (see build_overlap_complex)."""
    agents = system.agents
    up: list[list[int]] = [[] for _ in agents]
    for i, j in edges:
        up[i].append(j)

    levels: list[tuple[Simplex, ...]] = [tuple((i,) for i in range(len(agents))), edges]
    k = 2
    while max_dim is None or k <= max_dim:
        prev = levels[k - 1]
        prev_set = set(prev)
        found: list[Simplex] = []
        for s in prev:
            shared = agents[s[0]].support
            for i in s[1:]:
                shared = shared & agents[i].support
            for v in up[s[0]]:
                if v <= s[-1] or any(s[:j] + s[j + 1 :] + (v,) not in prev_set for j in range(k)):
                    continue
                cand = s + (v,)
                overlap = shared & agents[v].support
                if not any(overlap.isdisjoint(agents[i].positive) for i in cand):
                    found.append(cand)
        if not found:
            break
        levels.append(tuple(found))
        k += 1
    return SimplicialComplex._canonical(system.names, tuple(levels))


def coboundary_columns(X: SimplicialComplex, k: int) -> list[Column]:
    """Sparse columns of the degree-k coboundary map in canonical simplex order.

    Column j belongs to the j-th k-simplex and maps the index of each
    (k+1)-simplex containing it to the sign of that face: (-1)**p when
    the face is obtained by deleting vertex position p.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    col_simplices = X.simplices(k)
    col_index = {s: j for j, s in enumerate(col_simplices)}
    columns: list[Column] = [{} for _ in col_simplices]
    for i, t in enumerate(X.simplices(k + 1)):
        for p in range(len(t)):
            columns[col_index[t[:p] + t[p + 1 :]]][i] = 1 if p % 2 == 0 else -1
    return columns


@dataclass(frozen=True)
class SpanningForest:
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
            for v in sorted(adjacency[u]):
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
