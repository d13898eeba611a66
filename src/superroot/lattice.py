"""Exact integer arithmetic on the character lattice X(T) and its dual.

Weights and coweights are plain tuples of Python ints (arbitrary
precision).  All integer linear algebra of the package is :func:`hnf`,
whose row-style Hermite normal form gives equal lattices equal bases,
plus :func:`solve` (or :func:`solver`, for many vectors against one
basis), which reads integer coordinates off such a basis.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

Weight = Tuple[int, ...]
Coweight = Tuple[int, ...]


class SuperrootError(Exception):
    """Base class of every error the library raises for an input it refuses."""


class DimensionMismatch(SuperrootError, ValueError):
    """Vectors of unequal length were combined."""


def check_rank(vec: Sequence[int], rank: int) -> None:
    if len(vec) != rank:
        raise DimensionMismatch(
            "expected length %d, got %d: %r" % (rank, len(vec), tuple(vec))
        )


def zero(rank: int) -> Weight:
    return (0,) * rank


def add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionMismatch("cannot add %r and %r" % (a, b))
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionMismatch("cannot subtract %r and %r" % (a, b))
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def scale(c: int, a: Weight) -> Weight:
    return tuple(c * x for x in a)


def unit_difference(rank: int, i: int, j: int) -> Weight:
    """e_i - e_j (zero when i == j)."""
    return tuple((k == i) - (k == j) for k in range(rank))


def is_zero(a: Weight) -> bool:
    return all(x == 0 for x in a)


def pair(lam: Weight, cov: Coweight) -> int:
    """Perfect pairing X(T) x X(T)^v -> Z, i.e. the integer dot product."""
    if len(lam) != len(cov):
        raise DimensionMismatch("cannot pair %r with %r" % (lam, cov))
    return sum(a * b for a, b in zip(lam, cov))


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    # Returns (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when a,b not both 0.
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf(rows: Iterable[Sequence[int]]) -> List[Weight]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped.  The result is a canonical basis
    of the row lattice.
    """
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise DimensionMismatch("ragged rows in hnf input")
    pivot_row = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        # Eliminate everything below pivot_row in this column via gcd steps.
        nonzero = [i for i in range(pivot_row, len(mat)) if mat[i][col]]
        if not nonzero:
            continue
        i0 = nonzero[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        for i in range(pivot_row + 1, len(mat)):
            if not mat[i][col]:
                continue
            a, b = mat[pivot_row][col], mat[i][col]
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            ri, rp = mat[i], mat[pivot_row]
            for j in range(ncols):
                rp[j], ri[j] = x * rp[j] + y * ri[j], ag * ri[j] - bg * rp[j]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-v for v in mat[pivot_row]]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == len(mat):
            break
    mat = mat[:pivot_row]
    # Reduce entries above each pivot, left to right: row prow is zero
    # left of pcol, so a subtraction never disturbs an earlier column.
    for prow, pcol in pivots:
        piv = mat[prow][pcol]
        for i in range(prow):
            q = mat[i][pcol] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[prow])]
    return [tuple(r) for r in mat]


def integer_kernel(vectors: Sequence[Sequence[int]], rank: int) -> List[Weight]:
    """Basis (HNF rows) of {x in Z^rank : dot(x, v) == 0 for all v}.

    The rows of hnf([A^T | I]) whose image part is zero."""
    for v in vectors:
        check_rank(v, rank)
    k = len(vectors)
    aug = [
        [vectors[t][i] for t in range(k)] + [1 if j == i else 0 for j in range(rank)]
        for i in range(rank)
    ]
    return [r[k:] for r in hnf(aug) if not any(r[:k])]


def solver(rows: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], Optional[Weight]]:
    """:func:`solve` against fixed ``rows``, which are checked and whose
    pivots are found once, not once per vector."""
    pivots = [next(compress(count(), row), None) for row in rows]
    for prev, col in zip([-1] + pivots, pivots):
        if col is None or col <= prev:
            raise ValueError("rows are not in echelon form")
    by_pivot = {col: (t, row) for t, (row, col) in enumerate(zip(rows, pivots))}
    width = len(rows[0]) if rows else None

    def solve_one(vec: Sequence[int]) -> Optional[Weight]:
        if width is not None:
            check_rank(vec, width)
        residue = list(vec)
        coords = [0] * len(rows)
        # Walk the residue's nonzero entries left to right, reading each
        # after the rows left of it are subtracted: only the row pivoted
        # there can clear it, and every other row's quotient is zero.
        for col in compress(count(), residue):
            if col not in by_pivot:
                return None
            t, row = by_pivot[col]
            q, rem = divmod(residue[col], row[col])
            if rem:
                return None
            residue[col:] = [a - q * b for a, b in zip(residue[col:], row[col:])]
            coords[t] = q
        return tuple(coords)

    return solve_one


def solve(vec: Sequence[int], rows: Sequence[Sequence[int]]) -> Optional[Weight]:
    """Integer coordinates y with y . rows == vec, or None when ``vec`` is
    off the row lattice.

    ``rows`` must be in echelon form, as :func:`hnf` returns them: each
    row nonzero, with its first nonzero entry (its pivot) strictly right
    of the previous row's; otherwise ValueError.  A row whose quotient
    is zero is not subtracted.
    """
    if rows:
        check_rank(vec, len(rows[0]))
    return solver(rows)(vec)


def in_lattice(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Whether ``vec`` is an integer combination of the basis rows, which
    must be in echelon form as :func:`hnf` returns them (see :func:`solve`)."""
    return solve(vec, basis) is not None
