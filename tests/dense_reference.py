"""Dense exact linear algebra: the reference the sparse kernel is tested against.

This is the dense ``Fraction`` reduced row-echelon code that computed
every rank, kernel basis and span test of the library before the sparse
column reduction replaced it, together with the dense matrix type, the
dense coboundary matrix and the ``Fraction`` rescaling of a kernel
vector to coprime integers that went with it. It is kept here, unchanged
in behaviour, so that tests can require the sparse results to equal the
dense ones. Two functions are built straight from a definition instead:
``coboundary_matrix`` writes each face sign from the simplices alone,
and ``noncoboundary_cocycle`` computes the library's canonical cocycle.
Cochains are plain: a map from simplices to values, or a tuple of values
in canonical simplex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from urprior.complexes import Simplex, SimplicialComplex, spanning_forest

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Matrix:
    """Dense matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(row) != self.cols for row in self.entries):
            raise ValueError("entry grid does not match the declared dimensions")

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Fraction | int]], *, cols: int | None = None
    ) -> "Matrix":
        grid = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if cols is None:
            if not grid:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(grid[0])
        return cls(len(grid), cols, grid)


def coboundary_matrix(X: SimplicialComplex, k: int) -> Matrix:
    """Dense matrix of the degree-k coboundary map, from its definition.

    Rows are the (k+1)-simplices, columns the k-simplices, each in
    canonical order. Entry (t, s) is (-1)**p when s is the face of t that
    deletes the vertex at position p of t, and 0 when s is no face of t.
    """
    rows, cols = X.simplices(k + 1), X.simplices(k)
    grid = [[Fraction(0)] * len(cols) for _ in rows]
    for i, t in enumerate(rows):
        for j, s in enumerate(cols):
            if set(s) <= set(t):
                (missing,) = set(t) - set(s)
                grid[i][j] = Fraction((-1) ** t.index(missing))
    return Matrix.from_rows(grid, cols=len(cols))


def _coprime_integers(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    denominator_lcm = lcm(*(x.denominator for x in vec))
    ints = [x * denominator_lcm for x in vec]
    common = gcd(*(abs(int(x)) for x in ints))
    scaled = [x / common for x in ints]
    lead = next((x for x in scaled if x != 0), Fraction(0))
    if lead < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    if len(v) != m.cols:
        raise ValueError(f"vector of length {len(v)} against {m.cols} columns")
    return tuple(sum((a * b for a, b in zip(row, v)), start=Fraction(0)) for row in m.entries)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    grid = [
        [
            sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), start=Fraction(0))
            for j in range(b.cols)
        ]
        for i in range(a.rows)
    ]
    return Matrix.from_rows(grid, cols=b.cols)


def columns(m: Matrix) -> list[Vector]:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivot_cols: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form with pivot columns and rank.

    The rref of a rational matrix is unique, which makes it usable as a
    canonical form in regression tests.
    """
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        source = None
        for r in range(pivot_row, m.rows):
            if work[r][col] != 0:
                source = r
                break
        if source is None:
            continue
        work[pivot_row], work[source] = work[source], work[pivot_row]
        factor = work[pivot_row][col]
        if factor != 1:
            work[pivot_row] = [x / factor for x in work[pivot_row]]
        for r in range(m.rows):
            if r != pivot_row and work[r][col] != 0:
                scale = work[r][col]
                work[r] = [a - scale * b if b else a for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return RrefResult(Matrix.from_rows(work, cols=m.cols), tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def cohomology_dim(X: SimplicialComplex, k: int) -> int:
    """dim H^k(X; Q): the k-cochains less the ranks of delta_k and delta_(k-1)."""
    cochains = len(X.simplices(k))
    return cochains - rank(coboundary_matrix(X, k)) - rank(coboundary_matrix(X, k - 1))


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Canonical kernel basis, one vector per free column.

    Each basis vector sets its free variable to 1 and every other free
    variable to 0, so the basis is determined by the matrix alone.
    """
    result = rref(m)
    pivot_set = set(result.pivot_cols)
    basis: list[Vector] = []
    for free_col in range(m.cols):
        if free_col in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free_col] = Fraction(1)
        for row_idx, pivot_col in enumerate(result.pivot_cols):
            v[pivot_col] = -result.matrix.entries[row_idx][free_col]
        basis.append(tuple(v))
    return basis


def in_span(basis: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Vector | None:
    """Exact span membership test.

    Returns coefficients c with sum(c[k] * basis[k]) == target, or None
    when the target lies outside the span. When the solution is not
    unique the free coefficients are pinned to 0, so the answer is
    canonical.
    """
    n = len(target)
    for v in basis:
        if len(v) != n:
            raise ValueError("span test requires vectors of one shared length")
    k = len(basis)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    augmented = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    result = rref(Matrix.from_rows(augmented, cols=k + 1))
    if k in result.pivot_cols:
        return None
    coeffs = [Fraction(0)] * k
    for row_idx, pivot_col in enumerate(result.pivot_cols):
        coeffs[pivot_col] = result.matrix.entries[row_idx][k]
    return tuple(coeffs)


def noncoboundary_cocycle(X: SimplicialComplex) -> dict[Simplex, int] | None:
    """The canonical cocycle by its definition, densely, as an ``{edge: int}`` map.

    The first vector of ``nullspace_basis`` of delta_1 (d_2 transposed)
    restricted to the columns of the spanning forest's non-tree edges,
    extended by 0 to the tree edges and rescaled by ``_coprime_integers``;
    None when that kernel is 0.
    """
    non_tree = spanning_forest(X).non_tree
    index = {e: j for j, e in enumerate(X.simplices(1))}
    delta = coboundary_matrix(X, 1)
    restricted = Matrix.from_rows(
        [[row[index[e]] for e in non_tree] for row in delta.entries], cols=len(non_tree)
    )
    basis = nullspace_basis(restricted)
    if not basis:
        return None
    twist = dict(zip(non_tree, basis[0]))
    values = _coprime_integers([twist.get(e, Fraction(0)) for e in index])
    return {e: int(v) for e, v in zip(index, values)}


def coboundary_witness(
    X: SimplicialComplex, k: int, values: Sequence[Fraction | int]
) -> Vector | None:
    """The dense original: a (k-1)-cochain whose coboundary is the k-cochain ``values``, or None.

    Both cochains are tuples of values in canonical simplex order; the
    witness is the span coefficients of ``values`` over the columns of
    delta_(k-1).
    """
    return in_span(columns(coboundary_matrix(X, k - 1)), values)
