"""Coboundary maps, their ranks, rational cohomology dimensions and the canonical 1-cocycle.

A coboundary map exists only as sparse integer columns
(``coboundary_columns``); no dense matrix is built, not even for
display. This module alone writes their signs and alone reduces them,
through the exact column reduction of ``urprior.numerics``. Every rank
of a coboundary map is ``coboundary_rank(X, k)``, and degrees 0 and 1
read the complex's cached spanning forest (``spanning_forest``):

- rank delta_0 is the number of vertices minus the number of components,
  the edge count of the forest, with no elimination at all;
- rank delta_1 equals rank d_2, the rank of the triangles' boundaries. A
  1-cycle is fixed by its values on the forest's non-tree edges, so each
  boundary is restricted to them, at most 3 entries, and the reduction
  stops once the rank reaches the number of non-tree edges (H^1 = 0),
  the technique of Ripser (Bauer 2021): reduce small boundary columns,
  exit early. ``_cycle_space_reduction`` is that one reduction; the
  canonical cocycle of ``noncoboundary_cocycle`` is read off its pivots,
  and no delta_1 column is ever reduced;
- degrees 2 and up reduce the columns of ``coboundary_columns``.

A complex that collapses (``urprior.complexes``) is never reduced. It
collapses onto its c vertices with an empty upper link, so it has c
components and H^k = 0 for every k >= 1. Then rank delta_0 = n - c, and
each rank above follows from the exactness at H^k = 0 alone:
rank delta_k = X_k - rank delta_(k-1), read off its counts, up to its
dimension, the largest link. From there up there is no (k+1)-simplex
and rank delta_k = 0, so a degree far past the dimension costs nothing.

``cohomology_dim(X, k)`` is the number of k-simplices less rank delta_k
and rank delta_(k-1). A cochain is a plain map from simplices to values;
the one this module returns, the cocycle of ``noncoboundary_cocycle``, is
an ``{edge: int}`` map over every edge.
"""

from __future__ import annotations

from typing import Iterator

from urprior.complexes import Simplex, SimplicialComplex, spanning_forest
from urprior.numerics import Column, _left_kernel_vector, _reduce, matrix_rank

__all__ = [
    "coboundary_columns",
    "coboundary_rank",
    "cohomology_dim",
    "noncoboundary_cocycle",
]


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


def coboundary_rank(X: SimplicialComplex, k: int) -> int:
    """rank delta_k: off the counts if X collapses, else from the forest (k <= 1) or by reduction.

    See the module notes.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    links = X._links
    if links is not None:
        if k >= max(links, default=0):
            return 0  # no (k + 1)-simplex
        rank = len(X.vertices) - links.count(0)
        for count in X.counts(k)[1:]:
            rank = count - rank
        return rank
    if k == 0:
        return len(spanning_forest(X).parent)
    if k == 1:
        return len(_cycle_space_reduction(X)[1])
    return matrix_rank(coboundary_columns(X, k), len(X.simplices(k + 1)))


def _cycle_space_reduction(X: SimplicialComplex) -> tuple[tuple[Simplex, ...], dict[int, Column]]:
    """The triangles' boundaries on the non-tree edges, reduced: (non-tree edges, pivots).

    Row r is the r-th non-tree edge of the complex's forest. There are as
    many pivots as rank delta_1 (see the module notes), and the reduction
    stops once every non-tree edge is a pivot (H^1 = 0).
    """
    non_tree = spanning_forest(X).non_tree
    rows = {e: r for r, e in enumerate(non_tree)}

    def boundaries() -> Iterator[Column]:
        for a, b, c in X.simplices(2):
            column: Column = {}
            # (-1)**p at the face that deletes vertex position p, as in coboundary_columns
            for face, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
                row = rows.get(face)
                if row is not None:
                    column[row] = sign
            yield column

    return non_tree, _reduce(boundaries(), len(non_tree))


def cohomology_dim(X: SimplicialComplex, k: int) -> int:
    """dim H^k over the rationals. Degree 0 is out of scope here."""
    if k < 1:
        raise ValueError("cohomology_dim supports k >= 1 only")
    return X.count(k) - coboundary_rank(X, k) - coboundary_rank(X, k - 1)


def noncoboundary_cocycle(X: SimplicialComplex) -> dict[Simplex, int] | None:
    """An integer 1-cocycle that is not a coboundary, or None when H^1 = 0.

    The canonical pick: the first reduced row-echelon kernel vector of
    the transposed boundary map d_2 restricted to the non-tree edges of
    the spanning forest, extended by 0 to the tree edges, in coprime
    integers with a positive entry at its lowest edge index, read off the
    pivots of the reduction behind rank delta_1. It is a cocycle, since
    it vanishes on every triangle's boundary, and no coboundary: a
    coboundary delta f that is 0 on every tree edge has f constant on
    each component, so delta f = 0. It is returned as a map from every
    edge, in canonical order, to its integer value.
    """
    non_tree, pivots = _cycle_space_reduction(X)
    vector = _left_kernel_vector(pivots, len(non_tree))
    if vector is None:
        return None
    twist = {non_tree[r]: v for r, v in vector.items()}
    return {e: twist.get(e, 0) for e in X.simplices(1)}
